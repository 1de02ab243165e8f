"""Arithmetic for quotient constructions P^1 x Y -> (P^1 x Y)/G.

When a finite group G acts diagonally on the product of P^1 with a K3
surface Y so that S = Y/G has only type-A Du Val singularities, the
quotient 3-fold X picks up two cyclic quotient points of index n+1 over
every A_n point of S, and c1.c2 drops by the covering degree:
c1(X).c2(X) = 48/|G|.  If the minimal resolution of S is an Enriques
surface instead, the same data comes from a symplectic subgroup of index
2: singular points must pair up under the free double cover, and the
profile, the index multiset and c1.c2 all halve while the group order
doubles.

This module holds the scenario record type for rows of those two
classification tables plus the mechanical checks tying the columns
together.  No group theory is done here: the group labels are opaque and
nothing verifies that the listed groups actually act on a K3 surface.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .riemann_roch import EMPTY_SYMBOL, Frozen, IndexMultiset, RunMultiset
from .riemann_roch import format_index_multiset, parse_terms


class CoverType(Enum):
    K3 = "K3"
    ENRIQUES = "Enriques"


# chi(O_X) = chi(O_S) for the quotient, so the cover type pins it down.
EXPECTED_CHI = {CoverType.K3: 2, CoverType.ENRIQUES: 1}

# A P^1-bundle over an abelian surface has c1.c2 = 0, and quasi-etale
# quotients keep it zero; that cover type needs no scenario table.
P1_BUNDLE_OVER_ABELIAN_C1C2 = Fraction(0)


class SingularityProfile(RunMultiset):
    """Multiset of Du Val A_n types, stored as (n, multiplicity) runs: the
    `RunMultiset` of baskets and index multisets, read by `parse_terms`."""

    __slots__ = ()
    _item, _floor = "A_n type n", 1


class QuotientScenario(Frozen):
    """One classification-table row: a group with its quotient data.

    `group_label` is carried for display only; scenario identity is the
    arithmetic content (order, profile, cover type), see `key()`.
    """

    __slots__ = _fields = (
        "group_label", "group_order", "profile", "cover", "expected_indices", "expected_c1c2",
    )

    def __init__(
        self, group_label: str, group_order: int, profile: SingularityProfile,
        cover: CoverType, expected_indices: IndexMultiset, expected_c1c2: Fraction,
    ) -> None:
        if group_order < 2:
            raise ValueError(f"group order must be >= 2, got {group_order}")
        self._set(group_label, group_order, profile, cover, expected_indices, Fraction(expected_c1c2))

    def key(self) -> tuple[int, SingularityProfile, CoverType]:
        return (self.group_order, self.profile, self.cover)


class Finding(Frozen):
    __slots__ = _fields = ("check", "passed", "expected", "actual")

    def __init__(self, check: str, passed: bool, expected: str, actual: str) -> None:
        self._set(check, passed, expected, actual)


class ScenarioCheck(Frozen):
    __slots__ = _fields = ("scenario", "findings")

    def __init__(self, scenario: QuotientScenario, findings: tuple[Finding, ...]) -> None:
        self._set(scenario, findings)

    @property
    def ok(self) -> bool:
        return all(f.passed for f in self.findings)

    @property
    def failed_checks(self) -> tuple[str, ...]:
        return tuple(f.check for f in self.findings if not f.passed)


def indices_from_profile(profile: SingularityProfile) -> IndexMultiset:
    """Each A_n point downstairs contributes two index-(n+1) points upstairs."""
    return IndexMultiset(tuple((n + 1, 2 * mult) for n, mult in profile.groups))


def quotient_c1c2(order: int) -> Fraction:
    """c1.c2 of the quotient of P^1 x K3 by a group of the given order."""
    if order < 1:
        raise ValueError(f"group order must be >= 1, got {order}")
    return Fraction(48, order)


def check_scenario(scenario: QuotientScenario) -> ScenarioCheck:
    """Verify a table row exactly; failures are itemized, never raised.

    (a) the index multiset derived from the profile matches the stated one;
    (b) c1.c2 = 48/|G|;
    (c) the Euler identity gives chi = 2 for a K3 cover, 1 for Enriques.
    """
    derived = indices_from_profile(scenario.profile)
    ratio = quotient_c1c2(scenario.group_order)
    chi = (scenario.expected_c1c2 + scenario.expected_indices.weight) / 24
    wanted = EXPECTED_CHI[scenario.cover]
    return ScenarioCheck(scenario, (
        Finding("indices", derived == scenario.expected_indices,
                format_index_multiset(scenario.expected_indices), format_index_multiset(derived)),
        Finding("c1c2", ratio == scenario.expected_c1c2,
                str(scenario.expected_c1c2), f"48/{scenario.group_order} = {ratio}"),
        Finding("euler", chi == wanted, str(wanted), str(chi)),
    ))


def derive_enriques(k3_rows: Iterable[QuotientScenario]) -> list[QuotientScenario]:
    """Derive the Enriques rows from the K3 rows.

    Keeps exactly the rows whose singular points appear in couples (every
    profile multiplicity even), then halves the profile, the index
    multiset and c1.c2, and doubles the group order.  The halved profile
    must regenerate the halved index multiset; a disagreement means the
    input rows are corrupt and raises.
    """
    derived = []
    for row in k3_rows:
        if row.cover is not CoverType.K3:
            raise ValueError(f"expected a K3 row, got {row.cover} for {row.group_label}")
        if any(mult % 2 for _, mult in row.profile.groups):
            continue
        half_profile = SingularityProfile(
            tuple((n, mult // 2) for n, mult in row.profile.groups)
        )
        from_profile = indices_from_profile(half_profile)
        if any(mult % 2 for _, mult in row.expected_indices.groups):
            raise ValueError(
                f"row {row.group_label}: paired profile but odd index multiplicity"
            )
        halved_indices = IndexMultiset(
            tuple((r, mult // 2) for r, mult in row.expected_indices.groups)
        )
        if from_profile != halved_indices:
            raise ValueError(
                f"row {row.group_label}: halved profile gives "
                f"{format_index_multiset(from_profile)}, halved indices give "
                f"{format_index_multiset(halved_indices)}"
            )
        derived.append(
            QuotientScenario(
                group_label=row.group_label,
                group_order=2 * row.group_order,
                profile=half_profile,
                cover=CoverType.ENRIQUES,
                expected_indices=halved_indices,
                expected_c1c2=row.expected_c1c2 / 2,
            )
        )
    return derived


# Profile text form: comma-separated `kA_n` or `A_n` terms, e.g. "2A_3,9A_1".
_PROFILE_TERM_RE = re.compile(r"(\d*)A_(\d+)")


def parse_profile(text: str) -> SingularityProfile:
    return SingularityProfile(
        (int(m[2]), int(m[1] or 1)) for m in parse_terms(text, _PROFILE_TERM_RE)
    )


def format_profile(profile: SingularityProfile) -> str:
    if not profile.groups:
        return EMPTY_SYMBOL
    return ",".join(
        f"{mult}A_{n}" if mult > 1 else f"A_{n}" for n, mult in profile.groups
    )
