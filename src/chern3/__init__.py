"""Exact Chern-number and singularity-basket bookkeeping for terminal 3-folds.

The package enumerates the index multisets a terminal projective 3-fold
with nef anticanonical divisor can carry, evaluates Reid's orbifold
Riemann-Roch series exactly, and re-derives the shipped classification
tables from first principles.  Everything is exact rational arithmetic.

The quotient and table-check names are imported on first use
(`__getattr__`), so `import chern3` and the `enumerate` command never load
`chern3.quotient` or `chern3.tables`.
"""

from .enumeration import (
    ALL,
    C1C2_ZERO,
    INTEGRAL_L2,
    ChernRecord,
    EnumerationQuery,
    NoPositiveValueError,
    RecordFilter,
    c1c2_in_range,
    count_candidates,
    effective_bound,
    enumerate_index_multisets,
    exists_integral_basket,
    feasible_index_multisets,
    min_positive_c1c2,
)
from .riemann_roch import (
    Basket,
    BasketPoint,
    ChernContext,
    IndexMultiset,
    c1c2_from_indices,
    cartier_index,
    chi_minus_nk,
    chi_series,
    format_basket,
    format_index_multiset,
    l_value,
    parse_basket,
    parse_index_multiset,
    parse_rational,
    point_correction,
    residue,
)

__version__ = "0.1.0"

# the public names that `__getattr__` imports on first use, each with its module
_LAZY_NAMES = {
    **dict.fromkeys((
        "CoverType", "QuotientScenario", "ScenarioCheck", "SingularityProfile", "check_scenario",
        "derive_enriques", "format_profile", "indices_from_profile", "parse_profile",
        "quotient_c1c2",
    ), "quotient"),
    **dict.fromkeys(("TableCheck", "reproduce_table"), "tables"),
}


def __getattr__(name: str):
    """A `_LAZY_NAMES` name, imported from its module on first use; any other name is missing."""
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    return value


__all__ = [
    "ALL",
    "Basket",
    "BasketPoint",
    "C1C2_ZERO",
    "ChernContext",
    "ChernRecord",
    "CoverType",
    "EnumerationQuery",
    "INTEGRAL_L2",
    "IndexMultiset",
    "NoPositiveValueError",
    "QuotientScenario",
    "RecordFilter",
    "ScenarioCheck",
    "SingularityProfile",
    "TableCheck",
    "c1c2_from_indices",
    "c1c2_in_range",
    "cartier_index",
    "check_scenario",
    "chi_minus_nk",
    "chi_series",
    "count_candidates",
    "derive_enriques",
    "effective_bound",
    "enumerate_index_multisets",
    "exists_integral_basket",
    "feasible_index_multisets",
    "format_basket",
    "format_index_multiset",
    "format_profile",
    "indices_from_profile",
    "l_value",
    "min_positive_c1c2",
    "parse_basket",
    "parse_index_multiset",
    "parse_profile",
    "parse_rational",
    "point_correction",
    "quotient_c1c2",
    "reproduce_table",
    "residue",
]
