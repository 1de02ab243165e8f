"""Pruned exact enumeration of index multisets under the bound sum(r - 1/r) <= 24*chi.

Since every local index r >= 2 contributes weight r - 1/r >= 3/2, the bound
leaves finitely many multisets; for chi <= 2 the search space is small
enough to exhaust on a desk machine.  The enumerator walks non-decreasing
index sequences depth-first, cutting a branch as soon as the remaining
weight budget cannot absorb another index.  All budget arithmetic is done
in integers scaled by lcm(1..r_max) times the budget denominator, so no
comparison ever involves a float or an unreduced fraction; `_frame` owns
that scale, the weight table and the l(2) modulus for a budget.

Alongside the multisets themselves, the walk tracks which values l(2)
takes modulo 1 over all admissible b-assignments, as integer numerators
over the fixed modulus 2*lcm(1..r_max); a multiset admits a basket with
integral l(2) exactly when 0 is reachable.  That settles every m at once:
for any basket l(m) = (1^2 + ... + (m-1)^2) * l(2) (mod 1), so integral
l(2) makes every l(m) integral.  `exists_integral_basket` runs the same
integer DP for a single multiset and rebuilds its witness.

The walk also carries each node's Cartier index (the running lcm of its
indices), passes every node, the empty multiset at its root included,
through one filter test in `_finish_node`, and visits nodes in
lexicographic order of the expanded index sequence, so a stable sort on
the scaled c1.c2 alone gives the canonical order.  Every emitted
`ChernRecord` re-checks its c1.c2 and Cartier index in integers scaled by
that lcm, and checks that its witness has integral l(m) at every m with one
integer scan over a period (`first_fractional_l`), without using the
congruence above; `Fraction` appears only at the record boundary.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import itemgetter
from typing import ClassVar, Optional, Sequence

from . import tables
from .riemann_roch import (
    Basket,
    BasketPoint,
    IndexMultiset,
    c1c2_from_indices,  # noqa: F401  (perfbench/trace_cli.py times it here)
    cartier_index,
    first_fractional_l,
    format_index_multiset,
    l_value,
)

DEFAULT_CHI_DOMAIN = (0, 1, 2)

# run-length multiset as used in tree nodes and worker results
_Groups = tuple[tuple[int, int], ...]


class NoPositiveValueError(ValueError):
    """Raised when a minimum over positive c1.c2 values is requested but none exist."""


@dataclass(frozen=True, slots=True)
class RecordFilter:
    """Predicate selecting which enumerated records are emitted."""

    KINDS: ClassVar[tuple[str, ...]] = ("all", "c1c2-zero", "l2-integral", "c1c2-range")

    kind: str
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.kind == "c1c2-range":
            if self.lo is None or self.hi is None:
                raise ValueError("c1c2-range filter needs both bounds")
            if self.lo > self.hi:
                raise ValueError(f"empty range: {self.lo} > {self.hi}")
        elif self.lo is not None or self.hi is not None:
            raise ValueError(f"bounds are only meaningful for c1c2-range, not {self.kind!r}")

    def accepts(self, num: int, den: int, has_int: bool) -> bool:
        """Does a record with c1.c2 = num/den (den > 0) pass the filter?

        has_int says whether some basket over the record has integral l(2).
        """
        if self.kind == "c1c2-zero":
            return num == 0
        if self.kind == "c1c2-range":
            return self.lo <= Fraction(num, den) <= self.hi
        if self.kind == "l2-integral":
            return has_int
        return True


ALL = RecordFilter("all")
C1C2_ZERO = RecordFilter("c1c2-zero")
INTEGRAL_L2 = RecordFilter("l2-integral")


def c1c2_in_range(lo: Fraction, hi: Fraction) -> RecordFilter:
    return RecordFilter("c1c2-range", Fraction(lo), Fraction(hi))


@dataclass(frozen=True, slots=True)
class EnumerationQuery:
    chi0: int
    filter: RecordFilter = ALL
    include_empty: bool = False
    allow_any_chi: bool = False

    def __post_init__(self) -> None:
        if self.chi0 < 0:
            raise ValueError(f"chi0 must be non-negative, got {self.chi0}")
        if not self.allow_any_chi and self.chi0 not in DEFAULT_CHI_DOMAIN:
            raise ValueError(
                f"chi0={self.chi0} is outside {{0, 1, 2}}; "
                "set allow_any_chi to explore anyway"
            )


@dataclass(frozen=True, slots=True)
class ChernRecord:
    """One admissible index multiset together with its exact Chern data.

    Construction re-derives c1.c2 and the Cartier index from the multiset
    and re-checks the witness, so a record that exists is consistent.
    c1.c2 is checked in integers scaled by the Cartier index, the lcm of
    the indices, which every weight term r - 1/r has as a common
    denominator.  The witness must have integral l(m) for every m >= 2,
    which `first_fractional_l` checks over one period of l, at a cost
    that grows with the Cartier index only.
    """

    indices: IndexMultiset
    chi0: int
    c1c2: Fraction
    cartier_index: int
    has_integral_basket: bool
    witness: Optional[Basket] = None

    def __post_init__(self) -> None:
        lcm = cartier_index(self.indices)
        # c1c2 * lcm, by 24*chi0 = c1c2 + weight
        scaled = 24 * self.chi0 * lcm - self.indices.scaled_weight(lcm)
        if self.c1c2.numerator * lcm != scaled * self.c1c2.denominator:
            raise ValueError(
                f"c1c2 mismatch for {format_index_multiset(self.indices)}: "
                f"stated {self.c1c2}, derived {Fraction(scaled, lcm)}"
            )
        if scaled < 0:
            raise ValueError(
                f"{format_index_multiset(self.indices)} has negative c1c2 {self.c1c2}"
            )
        if self.cartier_index != lcm:
            raise ValueError(
                f"Cartier index mismatch for {format_index_multiset(self.indices)}"
            )
        if self.has_integral_basket:
            if self.witness is None:
                raise ValueError("integral record lacks a witness basket")
            if self.witness.index_multiset() != self.indices:
                raise ValueError("witness does not project onto the index multiset")
            m = first_fractional_l(self.witness)
            if m is not None:
                raise ValueError(
                    f"witness has non-integral l({m}) = {l_value(self.witness, m)}"
                )
        elif self.witness is not None:
            raise ValueError("witness present although has_integral_basket is false")


@lru_cache(maxsize=None)
def _l2_corrections(r: int) -> tuple[tuple[int, int], ...]:
    """(b, c) per admissible b at index r, with c/(2r) = b(r-b)/(2r) mod 1 its l(2).

    The admissible b are coprime to r with 0 < 2b <= r, in ascending order.
    """
    return tuple(
        (b, b * (r - b) % (2 * r)) for b in range(1, r // 2 + 1) if math.gcd(b, r) == 1
    )


@lru_cache(maxsize=None)
def _l2_steps(r: int, mod: int) -> tuple[int, ...]:
    """The distinct l(2) corrections of index r, as numerators over mod."""
    scale = mod // (2 * r)
    return tuple(sorted({c * scale for _, c in _l2_corrections(r)}))


def _add_point(reach: set[int], mod: int, r: int) -> set[int]:
    """Reachable l(2) numerators over mod, a multiple of 2r, after a point of index r."""
    steps = _l2_steps(r, mod)
    return {(a + c) % mod for a in reach for c in steps}


def max_index(budget: Fraction) -> int:
    """Largest r with r - 1/r <= budget; 1 when no index fits."""
    if budget < Fraction(3, 2):
        return 1
    r = int(budget) + 1
    while Fraction(r * r - 1, r) > budget:
        r -= 1
    return r


@lru_cache(maxsize=None)
def _frame(max_weight: Fraction) -> tuple[int, int, int, tuple[int, ...], int]:
    """The walk's integers for a budget: (rmax, scale, budget, weights, mod).

    The budget and weights[r] = r - 1/r are in units of 1/scale, with scale =
    lcm(1..rmax) * the budget's denominator; mod = 2*lcm(1..rmax) for l(2).
    """
    rmax = max_index(max_weight)
    lcm_all = math.lcm(*range(1, rmax + 1))
    scale = lcm_all * max_weight.denominator
    weights = [0] * (rmax + 1)
    for r in range(2, rmax + 1):
        weights[r] = (r * lcm_all - lcm_all // r) * max_weight.denominator
    return rmax, scale, max_weight.numerator * lcm_all, tuple(weights), 2 * lcm_all


def _finish_node(
    out: list, groups: _Groups, rem: int, lcm: int, l2_reachable: bool, scale: int,
    flt: RecordFilter,
) -> None:
    """Append the item (groups, rem, lcm, witness) for one walked node to out.

    rem is c1c2 in units of 1/scale, lcm the Cartier index and witness the
    integral basket or None.  The filter is tested first, so nodes it
    rejects are dropped before the witness rebuild.
    """
    if not flt.accepts(rem, scale, l2_reachable):
        return
    witness = None
    if l2_reachable:
        _, witness = exists_integral_basket(IndexMultiset(groups))
        if witness is None:
            raise RuntimeError("walk and exists_integral_basket disagree; this is a bug")
    out.append((groups, rem, lcm, witness))


def _run_task(args) -> list:
    """Filtered items for the multisets whose smallest run is (r0, k0).

    The items come in lexicographic order of the expanded index sequence,
    and so do the chunks of the tasks listed by r0 ascending, then k0
    descending: every root r0^k sorts before every longer sequence starting
    with r0, and the subtree of r0^(k+1) before that of r0^k.  So the task
    with the largest k0 that fits first emits the roots r0, ..., r0^k0, and
    every task emits the subtree of r0^k0 extended by larger indices.
    """
    max_weight, flt, r0, k0 = args
    rmax, scale, budget_scaled, weights, mod = _frame(max_weight)
    out: list = []

    def scan(rmin: int, rem: int, prefix: _Groups, lcm: int, reach: set[int]):
        # pre-order over non-decreasing index sequences: each node is followed
        # by its extensions repeating its last index, then by larger indices
        for r in range(rmin, rmax + 1):
            w = weights[r]
            if w > rem:
                break
            if prefix[-1][0] == r:
                node, node_lcm = prefix[:-1] + ((r, prefix[-1][1] + 1),), lcm
            else:
                node, node_lcm = prefix + ((r, 1),), math.lcm(lcm, r)
            node_rem = rem - w
            node_reach = _add_point(reach, mod, r)
            _finish_node(out, node, node_rem, node_lcm, 0 in node_reach, scale, flt)
            scan(r, node_rem, node, node_lcm, node_reach)

    rem = budget_scaled - k0 * weights[r0]
    reach = {0}
    for k in range(1, k0 + 1):
        reach = _add_point(reach, mod, r0)
        if rem < weights[r0]:  # k0 is the largest that fits
            root_rem = budget_scaled - k * weights[r0]
            _finish_node(out, ((r0, k),), root_rem, r0, 0 in reach, scale, flt)
    scan(r0 + 1, rem, ((r0, k0),), r0, reach)
    return out


def _enumerate_raw(max_weight: Fraction, flt: RecordFilter, jobs: int) -> tuple[list, int]:
    """Filtered raw nodes in canonical order plus the budget scale."""
    rmax, scale, budget_scaled, weights, _ = _frame(max_weight)
    tasks = [
        (max_weight, flt, r, k)
        for r in range(2, rmax + 1)
        for k in range(budget_scaled // weights[r], 0, -1)
    ]

    if jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
            chunks = pool.map(_run_task, tasks)
    else:
        chunks = [_run_task(task) for task in tasks]

    raw = [item for chunk in chunks for item in chunk]
    # canonical total order: weight ascending, then lexicographic on the
    # expanded index sequence, which the stable sort keeps among equal
    # weights; independent of task scheduling
    raw.sort(key=itemgetter(1), reverse=True)
    return raw, scale


def enumerate_index_multisets(
    query: EnumerationQuery, jobs: int = 1
) -> list[ChernRecord]:
    """All index multisets with weight <= 24*chi0 passing the query filter.

    Records come in canonical order (weight ascending, then lexicographic
    on the expanded index sequence) regardless of `jobs`.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    flt = query.filter
    raw, scale = _enumerate_raw(Fraction(24 * query.chi0), flt, jobs)
    if query.include_empty:
        # the walk's root: weight 0, Cartier index 1, and l(2) = 0 reachable
        root: list = []
        _finish_node(root, (), 24 * query.chi0 * scale, 1, True, scale, flt)
        raw[:0] = root

    # each raw item is replaced by its record in place, so the raw items are
    # freed while the records are built
    for i, (groups, rem, lcm, witness) in enumerate(raw):
        raw[i] = ChernRecord(
            indices=IndexMultiset(groups),
            chi0=query.chi0,
            c1c2=Fraction(rem, scale),
            cartier_index=lcm,
            has_integral_basket=witness is not None,
            witness=witness,
        )
    return raw


def feasible_index_multisets(max_weight: Fraction) -> list[IndexMultiset]:
    """All non-empty index multisets of weight <= max_weight, canonically ordered.

    This is the bare pruned generator, exposed so it can be diffed against
    an unpruned oracle over arbitrary rational budgets.
    """
    raw, _ = _enumerate_raw(Fraction(max_weight), ALL, jobs=1)
    return [IndexMultiset(groups) for groups, *_ in raw]


def exists_integral_basket(indices: IndexMultiset) -> tuple[bool, Optional[Basket]]:
    """Does some b-assignment over the multiset make every l(m) integral?

    For a point (b, r) and t = jb mod r, t(r - t) = jbr - j^2 b^2 (mod 2r).
    Summed over the basket and over j = 1..m-1 this gives

        l(m) = (1^2 + ... + (m-1)^2) * l(2)  (mod 1),

    so a basket with integral l(2) has integral l(m) for every m, and l(2)
    alone decides every m.  On success the lexicographically smallest
    witness is returned, ordering baskets by their canonical (r, b) point
    sequence.  Decided by dynamic programming over the reachable l(2)
    numerators modulo 2 * Cartier index, with suffix sets guiding a greedy
    lexicographic reconstruction.
    """
    mod = 2 * cartier_index(indices)

    # suffix[i] = l(2) numerators over mod reachable using groups i..end
    suffix = [{0}]
    for r, mult in reversed(indices.groups):
        reach = suffix[-1]
        for _ in range(mult):
            reach = _add_point(reach, mod, r)
        suffix.append(reach)
    suffix.reverse()

    if 0 not in suffix[0]:
        return False, None

    chosen: list[BasketPoint] = []
    prefix = 0
    for (r, mult), rest in zip(indices.groups, suffix[1:]):
        scale = mod // (2 * r)
        correction = dict(_l2_corrections(r))
        for combo in combinations_with_replacement(correction, mult):
            total = prefix + scale * sum(correction[b] for b in combo)
            if -total % mod in rest:
                prefix = total
                chosen.extend(BasketPoint(b, r) for b in combo)
                break
        else:
            raise RuntimeError("reachability and reconstruction disagree; this is a bug")
    return True, Basket.from_points(chosen)


@dataclass(frozen=True, slots=True)
class TableCheck:
    """Outcome of re-deriving a classification table from scratch."""

    table: int
    records: tuple[ChernRecord, ...]
    missing: tuple[tables.TableRow, ...]  # in the fixture, not reproduced
    extra: tuple[tables.TableRow, ...]  # reproduced, not in the fixture

    @property
    def ok(self) -> bool:
        return not self.missing and not self.extra


def _row_key(row: tables.TableRow):
    return (row.indices.weight, row.indices.indices())


def reproduce_table(
    table: int, fixture: Optional[Sequence[tables.TableRow]] = None
) -> TableCheck:
    """Re-enumerate table 1 or 2 and diff the result against the fixture."""
    if table == 1:
        flt = C1C2_ZERO
    elif table == 2:
        flt = INTEGRAL_L2
    else:
        raise ValueError(f"reproduce_table supports tables 1 and 2, got {table}")
    if fixture is None:
        fixture = tables.table_rows(table)

    records = enumerate_index_multisets(EnumerationQuery(chi0=1, filter=flt))
    produced = {
        tables.TableRow(rec.indices, rec.cartier_index, rec.c1c2) for rec in records
    }
    expected = set(fixture)
    missing = tuple(sorted(expected - produced, key=_row_key))
    extra = tuple(sorted(produced - expected, key=_row_key))
    return TableCheck(table=table, records=tuple(records), missing=missing, extra=extra)


def min_positive_c1c2(
    chi0: int, require_integral: bool = False
) -> tuple[Fraction, list[IndexMultiset]]:
    """Smallest positive c1.c2 over the enumerated records, with every attaining multiset."""
    flt = INTEGRAL_L2 if require_integral else ALL
    records = enumerate_index_multisets(EnumerationQuery(chi0=chi0, filter=flt))
    positive = [rec for rec in records if rec.c1c2 > 0]
    if not positive:
        raise NoPositiveValueError(
            f"no positive c1c2 value for chi0={chi0}"
            + (" under the integral-basket filter" if require_integral else "")
        )
    best = min(rec.c1c2 for rec in positive)
    return best, [rec.indices for rec in positive if rec.c1c2 == best]


def count_candidates(chi0: int, flt: RecordFilter = ALL, include_empty: bool = False) -> int:
    """Number of records the corresponding enumeration emits."""
    query = EnumerationQuery(chi0=chi0, filter=flt, include_empty=include_empty)
    return len(enumerate_index_multisets(query))


def effective_bound(
    min_positive: Fraction, max_cube: Fraction = Fraction(324)
) -> Fraction:
    """max_cube / min_positive, the uniform constant in c1^3 <= b * c1.c2."""
    min_positive = Fraction(min_positive)
    if min_positive <= 0:
        raise ValueError(f"division by non-positive value {min_positive}")
    return Fraction(max_cube) / min_positive
