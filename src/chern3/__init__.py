"""Exact Chern-number and singularity-basket bookkeeping for terminal 3-folds.

The package enumerates the index multisets a terminal projective 3-fold
with nef anticanonical divisor can carry, evaluates Reid's orbifold
Riemann-Roch series exactly, and re-derives the shipped classification
tables from first principles.  Everything is exact rational arithmetic.

`_NAMES` is the one table of public names, each with the module that
defines it.  `__getattr__` imports a name's module on first use, so
`import chern3` loads no module of the package, and `enumerate` never
loads `chern3.quotient` or `chern3.tables`; `__all__` and `dir(chern3)`
are read from the same table.
"""

__version__ = "0.1.0"

# every public name, with the module that `__getattr__` imports it from
_NAMES = {
    **dict.fromkeys((
        "ALL", "C1C2_ZERO", "INTEGRAL_L2", "ChernRecord", "EnumerationQuery",
        "NoPositiveValueError", "RecordFilter", "c1c2_in_range", "count_candidates",
        "effective_bound", "enumerate_index_multisets", "exists_integral_basket",
        "feasible_index_multisets", "min_positive_c1c2",
    ), "enumeration"),
    **dict.fromkeys((
        "Basket", "BasketPoint", "ChernContext", "IndexMultiset", "c1c2_from_indices",
        "cartier_index", "chi_minus_nk", "chi_series", "format_basket",
        "format_index_multiset", "l_value", "parse_basket", "parse_index_multiset",
        "parse_rational", "point_correction", "residue",
    ), "riemann_roch"),
    **dict.fromkeys((
        "CoverType", "QuotientScenario", "ScenarioCheck", "SingularityProfile", "check_scenario",
        "derive_enriques", "format_profile", "indices_from_profile", "parse_profile",
        "quotient_c1c2",
    ), "quotient"),
    **dict.fromkeys(("TableCheck", "reproduce_table"), "tables"),
}

__all__ = sorted(_NAMES)


def __getattr__(name: str):
    """A `_NAMES` name, imported from its module on first use; any other name is missing."""
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_NAMES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    """The module's globals and every `_NAMES` name, imported yet or not."""
    return sorted({*globals(), *_NAMES})
