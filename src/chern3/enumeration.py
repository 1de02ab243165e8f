"""Pruned exact enumeration of index multisets under the bound sum(r - 1/r) <= 24*chi.

Every local index r >= 2 weighs r - 1/r >= 3/2, so the bound leaves finitely
many multisets.  A run passes through these layers:

- `_frame`: a budget's integers.  The budget, the weights and each node's
  rem (its c1.c2) are integers over one scale, so the walk meets no float
  and no `Fraction`.
- `_run_task` and `_scan`: the walk, depth first over non-decreasing index
  sequences, one task per head r0^k0 and its extensions by larger indices
  (`_tasks`).  A node carries its rem, its Cartier index and one l(2)
  bitmask per prime (`_prime_moduli`, `_l2_parts`, `_l2_rotations`); it
  has a basket with integral l(2) iff every mask holds 0.  `_scan` tests,
  keeps and cuts each non-empty node once; the empty multiset is a task of
  its own, which `_run_task` tests.
  The l2-integral walk tests only nodes that can still lead to a row: a
  sibling loop ends where a slot lacking 0 needs more than the budget
  left (`_needs`, `_stop`), a subtree is cut on the same rule (`_cut`),
  and a subtree already walked with at least the budget is replayed from
  one memo of its kept rows, empty for a barren one (`_walked`, freed as
  the walk ends, and `_replay`).  A kept node with integral l(2) gets its
  witness rebuilt, as integer ((r, b), k) runs (`_witness_runs`).
- `_enumerate_raw`, the one driver: the tasks run in order or in a pool
  (`_map_tasks`), and one stable sort on rem puts their rows in canonical
  order.
- `check_record`: the record rules, the witness's (`_check_witness`)
  among them, which every record and every row passes.
- `enumerate_index_multisets` turns the rows into `ChernRecord`s with
  `Basket` witnesses.  `checked_lines` has the driver check and render
  each row in one pass inside its task, so a pool's workers send back
  text: `_checked_rows` makes each item a flat row, c1.c2's text reduced
  over the row's own Cartier index with the c1.c2 * r_X that
  `check_record` returns, and one renderer per format writes each row as
  one line.

The walk and the record build leave no reference cycle and run with the
cyclic garbage collector paused (`collector_paused`).
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_right
from contextlib import contextmanager
from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement, groupby, tee
from typing import ClassVar, Iterator, Optional, Sequence

from . import tables
from .riemann_roch import (
    Basket,
    BasketPoint,
    IndexMultiset,
    c1c2_from_indices,  # noqa: F401  (perfbench/trace_cli.py times it here)
    cartier_index,  # noqa: F401  (perfbench/trace_cli.py times it here)
    check_point,
    format_basket,
    format_index_multiset,
    l_value,
)

DEFAULT_CHI_DOMAIN = (0, 1, 2)

# run-length multiset as used in tree nodes and worker results
_Groups = tuple[tuple[int, int], ...]
# a witness as ((r, b), k) runs, strictly ascending by (r, b)
_Runs = tuple[tuple[tuple[int, int], int], ...]


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
        if self.kind == "c1c2-range":  # lo <= num/den <= hi, cross-multiplied
            lo, hi = self.lo, self.hi
            return (
                lo.numerator * den <= num * lo.denominator
                and num * hi.denominator <= hi.numerator * den
            )
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

    Construction passes the fields through `check_record`, which re-derives
    c1.c2 and the Cartier index from the multiset and re-checks the
    witness, as runs, so a record that exists is consistent.
    `has_integral_basket` is read from the witness, which must have
    integral l(m) for every m >= 2.  Records are built with the cyclic
    collector paused by the enumerator, and `cli.main` keeps it paused
    until its command has freed them.
    """

    indices: IndexMultiset
    chi0: int
    c1c2: Fraction
    cartier_index: int
    witness: Optional[Basket] = None

    @property
    def has_integral_basket(self) -> bool:
        return self.witness is not None

    def __post_init__(self) -> None:
        check_record(
            self.indices.groups, self.chi0, self.c1c2.numerator, self.c1c2.denominator,
            self.cartier_index, None if self.witness is None else _runs(self.witness),
        )


def _runs(basket: Basket) -> _Runs:
    """A basket's witness runs ((r, b), k)."""
    return tuple(((point.r, point.b), k) for point, k in basket.groups)


def _basket(runs: _Runs) -> Basket:
    """The `Basket` of witness runs; each point passes `BasketPoint`'s checks."""
    return Basket(tuple((BasketPoint(b, r), k) for (r, b), k in runs))


def _runs_state(groups: _Groups) -> tuple[int, int, int, str]:
    """(lcm, weight * lcm, last index, text) of canonical index runs, from scratch.

    Raises ValueError, as `IndexMultiset` does, for runs that are not
    canonical index runs.  The empty multiset's last index is 1, below
    every index; its text is the empty-set sign.
    """
    if IndexMultiset.canonical_runs(groups) is not groups:
        raise ValueError(f"index runs {groups} are not ascending tuples")
    derived = math.lcm(*[r for r, _ in groups])
    weight = 0  # the weight sum(r - 1/r) times derived
    for r, k in groups:
        weight += k * (r * r - 1) * (derived // r)
    if not groups:
        return derived, weight, 1, format_index_multiset(IndexMultiset())
    return derived, weight, groups[-1][0], ",".join(map(_run_text, groups))


def _stepped_state(groups: _Groups, heads: dict) -> tuple[int, int, int, str]:
    """The `_runs_state` of runs, in one step from their head's.

    The walk makes every node by adding one run to its parent or bumping
    the parent's last run, so a row's runs are a head, all runs but the
    last, plus the last run (r, k); the chi = 2 census's 216,683 rows have
    28,738 distinct heads.  The head's state is read from heads, a `_Heads`
    memo or any mapping of heads to their `_runs_state`; then one step adds
    the last run: the runs are canonical iff the head is and r is above its
    last index with k >= 1, lcm = lcm(head lcm, r), and the weight is the
    head's rescaled plus k(r^2 - 1)/r.  So the memo changes no outcome:
    every rule still re-derives from the runs alone.  The empty multiset,
    and runs the step cannot take, are derived whole from scratch, which
    raises `IndexMultiset`'s error for bad runs.
    """
    try:
        head, (r, k) = groups[:-1], groups[-1]
        head_lcm, head_weight, head_last, head_text = heads[head]
        stepped = (
            type(groups) is tuple and type(groups[-1]) is tuple and head_last < r and not k < 1
        )
    except (IndexError, TypeError, ValueError):  # empty, an unhashable head, or bad runs
        stepped = False
    if not stepped:
        return _runs_state(groups)
    derived = math.lcm(head_lcm, r)
    weight = head_weight * (derived // head_lcm) + k * (r * r - 1) * (derived // r)
    text = f"{head_text},{_run_text(groups[-1])}" if head else _run_text(groups[-1])
    return derived, weight, r, text


class _Heads(dict):
    """`check_record`'s memo of the heads of one task's rows: head -> `_runs_state`.

    A head met first is stepped from its own head (`_stepped_state`), so
    it costs one run's work, as a row does.  `_checked_rows` keeps one for
    a task's rows; it lives and dies there, so no task shares or pickles it.
    """

    __slots__ = ()

    def __missing__(self, head):
        state = self[head] = _stepped_state(head, self)
        return state


def check_record(
    groups: _Groups, chi0: int, num: int, den: int, lcm: int, witness: Optional[_Runs],
    heads: Optional[dict] = None,
) -> tuple[str, int]:
    """Raise ValueError unless these are the fields of a consistent record; else (text, scaled).

    The one owner of the record rules, which `ChernRecord` and
    `checked_lines` both apply: the runs are canonical index runs, c1.c2 =
    num/den (den > 0) is 24*chi0 minus their weight and not negative, lcm
    is their Cartier index, and a witness, given as runs ((r, b), k), passes
    `_check_witness`.  c1.c2 is checked in integers scaled by the
    re-derived lcm, which every weight term r - 1/r has as a denominator.
    The text is the runs as `format_index_multiset` prints them, and scaled
    is c1.c2 * lcm, an int, so num/den = scaled/lcm once the checks pass.
    The runs' lcm, weight and text are derived from scratch, or with heads
    in one step from their head's state (`_stepped_state`), so a row costs
    one run's work.
    """
    derived, weight, _, text = (
        _runs_state(groups) if heads is None else _stepped_state(groups, heads)
    )
    scaled = 24 * chi0 * derived - weight  # c1c2 * derived, by 24*chi0 = c1c2 + weight
    if num * derived != scaled * den:
        raise ValueError(
            f"c1c2 mismatch for {text}: "
            f"stated {Fraction(num, den)}, derived {Fraction(scaled, derived)}"
        )
    if scaled < 0:
        raise ValueError(f"{text} has negative c1c2 {Fraction(num, den)}")
    if lcm != derived:
        raise ValueError(f"Cartier index mismatch for {text}")
    if witness is not None:
        _check_witness(witness, groups, derived)
    return text, scaled


def _check_witness(runs: _Runs, groups: _Groups, r_x: int) -> None:
    """Raise ValueError unless the runs are a basket over groups with integral l(m) at every m.

    Every run ((r, b), k) is a point that `check_point` accepts with k >= 1,
    the runs strictly ascend by (r, b), their indices project onto the
    canonical index runs groups, whose lcm is r_X, and l(2) is integral:
    sum k * b(r - b) * (r_X / r) = 0 (mod 2 r_X), which is 2 r_X * l(2).

    That settles every m.  For a point (b, r), j >= 1 and t = jb mod r, say
    jb = t + sr: t(r - t) = jbr - j^2 b^2 + 2jbsr - s(s + 1)r^2, which is
    jbr - j^2 b^2 (mod 2r) as s(s + 1) is even, and jbr = j^2 br (mod 2r)
    as j = j^2 (mod 2).  So l's j-th summand t(r - t)/(2r) is j^2 times its
    first, b(r - b)/(2r), modulo 1, and summed over the basket and over
    j = 1..m-1,

        l(m) = (1^2 + ... + (m-1)^2) * l(2)  (mod 1),

    so a basket with integral l(2) has integral l(m) for every m (Reid,
    Young person's guide to canonical singularities, 1987), and a failing
    witness's first fractional l(m) is l(2), which the error names.
    """
    last, projected, total = (), [], 0
    for point, k in runs:
        r, b = point
        check_point(b, r)
        if k < 1:
            raise ValueError(f"multiplicity must be >= 1, got {k}")
        if not last < point:
            raise ValueError(f"witness runs {runs} are not ascending by (r, b)")
        last = point
        if projected and projected[-1][0] == r:
            projected[-1] = (r, projected[-1][1] + k)
        else:
            projected.append((r, k))
        total += k * b * (r - b) * (r_x // r)
    if tuple(projected) != groups:
        raise ValueError("witness does not project onto the index multiset")
    if total % (2 * r_x):
        raise ValueError(f"witness has non-integral l(2) = {l_value(_basket(runs), 2)}")


@lru_cache(maxsize=None)
def _prime_moduli(rmax: int) -> tuple[int, ...]:
    """The modulus of l(2)'s p-component for each prime p <= rmax, p ascending.

    It is the largest power of p dividing 2r for some r <= rmax: twice the
    largest power of 2 up to rmax for p = 2, the largest power of p up to
    rmax otherwise, so at most 2 * rmax.
    """
    moduli = []
    for p in range(2, rmax + 1):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            n = p
            while n * p <= rmax:
                n *= p
            moduli.append(2 * n if p == 2 else n)
    return tuple(moduli)


@lru_cache(maxsize=None)
def _l2_parts(r: int, rmax: int):
    """The p-components of l(2) that a point of index r <= rmax moves.

    Returns (slots, parts).  slots lists (position in `_prime_moduli(rmax)`,
    modulus n) for each prime p whose part is not always 0; parts lists
    (b, numerators) per admissible b (coprime to r, 0 < 2b <= r, ascending),
    with b's part of each slot as a numerator over its n.  The l(2) term of
    (b, r) is c/(2r) with c = b(r - b) mod 2r.  By CRT, c/(2r) is the sum
    over p | 2r of u/q, q = p^v_p(2r) and u = c * (2r/q)^-1 mod q, and u
    depends on b mod p^v_p(r) only, so the b in (Z/r)^* choose the parts of
    different primes independently.
    """
    corrections = [
        (b, b * (r - b) % (2 * r)) for b in range(1, r // 2 + 1) if math.gcd(b, r) == 1
    ]
    slots, columns = [], []
    for slot, n in enumerate(_prime_moduli(rmax)):
        q = math.gcd(n, 2 * r)
        if q == 1:
            continue
        inv = pow(2 * r // q, -1, q)
        column = [c * inv % q * (n // q) for _, c in corrections]
        if any(column):  # the 2-part of an odd index is always 0
            slots.append((slot, n))
            columns.append(column)
    parts = tuple(
        (b, tuple(column[i] for column in columns)) for i, (b, _) in enumerate(corrections)
    )
    return tuple(slots), parts


class _Memo(dict):
    """The value of each key, computed on first use and kept."""

    __slots__ = ("_compute",)

    def __init__(self, compute) -> None:
        super().__init__()
        self._compute = compute

    def __missing__(self, key):
        value = self[key] = self._compute(key)
        return value


def _rotate(n: int, shifts: frozenset[int], mask: int) -> int:
    """The union of the n-bit mask's left rotations by each s in shifts.

    Rotating left by s is (d >> (n - s)) & (2^n - 1) for the mask d doubled
    to 2n bits.
    """
    d = mask | mask << n
    acc = 0
    for s in shifts:
        acc |= d >> (n - s)
    return acc & ((1 << n) - 1)


@lru_cache(maxsize=None)
def _l2_rotations(r: int, rmax: int) -> tuple[tuple[int, _Memo], ...]:
    """The l(2) step of index r <= rmax: (slot, rotation) for each slot it moves.

    A slot's reachable numerators are an n-bit mask, and rotation[mask] is
    the mask after one more point of index r: the union of its rotations
    by the point's parts.  Each rotation is computed once per process and
    shared by every walk task and the witness rebuild (`_witness_runs`);
    over the chi = 2 census there are a few hundred distinct (mask, result)
    pairs.
    """
    slots, parts = _l2_parts(r, rmax)
    return tuple(
        (slot, _Memo(partial(_rotate, n, frozenset(part[i] for _, part in parts))))
        for i, (slot, n) in enumerate(slots)
    )


def max_index(budget: Fraction) -> int:
    """Largest r with r - 1/r <= budget; 1 when no index fits."""
    if budget < Fraction(3, 2):
        return 1
    r = int(budget) + 1
    while Fraction(r * r - 1, r) > budget:
        r -= 1
    return r


@lru_cache(maxsize=None)
def _frame(max_weight: Fraction) -> tuple[int, int, int, tuple[int, ...], tuple]:
    """The walk's integers for a budget: (rmax, scale, budget, weights, rotations).

    The budget and weights[r] = r - 1/r are in units of 1/scale, with scale =
    lcm(1..rmax) * the budget's denominator; rotations[r] is index r's l(2)
    step over `_prime_moduli(rmax)`.  weights[rmax + 1] is budget + 1, more
    than any node has left, so no node extends beyond rmax.
    """
    rmax = max_index(max_weight)
    lcm_all = math.lcm(*range(1, rmax + 1))
    scale = lcm_all * max_weight.denominator
    budget = max_weight.numerator * lcm_all
    weights = [0] * (rmax + 1) + [budget + 1]
    rotations = [()] * (rmax + 1)
    for r in range(2, rmax + 1):
        weights[r] = (r * lcm_all - lcm_all // r) * max_weight.denominator
        rotations[r] = _l2_rotations(r, rmax)
    return rmax, scale, budget, tuple(weights), tuple(rotations)


@lru_cache(maxsize=None)
def _needs(max_weight: Fraction) -> tuple[dict, ...]:
    """The l2-integral walk's need table for a budget: needs[slot][mask][r].

    For r <= rmax + 1 and a slot's mask lacking 0, it is the least weight of
    indices >= r that brings 0 into that mask (in `_frame`'s units), or
    budget + 1 when none within the budget does.  A node's subtree is its
    extensions by indices >= its own within its remaining budget, and the
    indices of an extension that move a slot weigh no more than the
    extension; so a node with a slot lacking 0 whose need exceeds its
    remaining budget keeps no row below it, and the walk cuts it (`_cut`).
    Need is non-decreasing in r, since the indices >= r + 1 are among those
    >= r, so a sibling loop, whose later nodes use only later indices
    within the same budget, ends at the first r where a slot of its prefix
    lacking 0 needs more than that budget, which a bisection of each such
    slot's needs finds (`_stop`).

    The masks are those the slot reaches from {0} within the budget.
    Rotations commute, so a cheapest multiset can take its copies of the
    slot's smallest mover first; need at that mover's position is the least
    over t copies of it plus the need, at the next position, of the mask
    they make.  A path that fits the budget left after its mask only passes
    masks reached within the budget, so the least weight is exact wherever
    it fits.  Need at r is the one at the first mover >= r.
    """
    rmax, _, budget, weights, rotations = _frame(max_weight)
    never = budget + 1
    movers: list[list] = [[] for _ in _prime_moduli(rmax)]
    for r in range(2, rmax + 1):
        for slot, rotation in rotations[r]:
            movers[slot].append((r, weights[r], rotation))
    columns = []
    for slot_movers in movers:
        reached = {1: 0}  # mask -> least weight reaching it from {0}
        for _, w, rotation in slot_movers:
            for mask, cost in list(reached.items()):
                while cost + w <= budget:
                    mask, cost = rotation[mask], cost + w
                    if reached.get(mask, never) <= cost:
                        break
                    reached[mask] = cost
        need = {mask: never for mask in reached if not mask & 1}
        column = [need] * (rmax + 2)  # need above the last mover
        for r, w, rotation in reversed(slot_movers):
            later, need = need, {}
            for mask in later:
                least, moved, spent = later[mask], mask, w
                while spent < least:
                    moved = rotation[moved]
                    if moved & 1:
                        least = spent
                    elif moved in later:
                        least = min(least, spent + later[moved])
                    else:
                        break  # beyond the budget from {0}
                    spent += w
                need[mask] = least
            column[: r + 1] = [need] * (r + 1)
        columns.append({mask: tuple(need[mask] for need in column) for mask in need})
    return tuple(columns)


@lru_cache(maxsize=None)
def _walked(max_weight: Fraction) -> dict:
    """The l2-integral walk's memo of walked subtrees for a budget, kept for one walk.

    It maps a subtree's key (next index, masks) to (rem, suffixes): the
    largest remaining budget at which the extensions of a node with those
    masks by indices >= next index were walked, and the suffixes of the
    rows kept there, in pre-order, each as (runs, weight, lcm).  A barren
    subtree's suffixes are empty.  Every cut is exact, so they are all the
    subtree's rows that the filter keeps.  Whether it keeps a row depends
    on the row's masks alone, which are the key's after the suffix, and a
    smaller budget walks, in the same order, the extensions of the larger
    one that fit it; so a later node with that key and no larger rem keeps
    exactly the stored suffixes of weight <= its rem, and the walk replays
    them (`_replay`) instead of walking the subtree (`_cut`).  The memo
    and the need table are per budget, and what they record does not
    depend on which tasks ran before, so neither does a task's items.
    The memo lives until the walk that filled it ends: `_enumerate_raw`
    clears it then, whether the walk ran in this process or in a pool whose
    workers each kept their own.
    """
    return {}


def _cut(masks: list[int], moved: tuple, needs: tuple, walked: dict, r: int, rem: int):
    """(key, suffixes) for a subtree: its memo key (r, *masks) if the walk must walk it.

    The subtree is the extensions by indices >= r, within rem, of the node
    whose masks are masks after the rotations moved.  A slot lacking 0
    whose need exceeds rem cuts it, (None, ()); a memo entry walked with at
    least rem gives (None, its suffixes) to replay; else it is (key, ()).
    Only the l2-integral walk asks.
    """
    masks = masks[:]
    for slot, rotation in moved:
        masks[slot] = rotation[masks[slot]]
    for mask, need in zip(masks, needs):
        if not mask & 1 and need[mask][r] > rem:
            return None, ()  # that slot needs more than rem
    key = (r, *masks)
    stored = walked.get(key)
    if stored is not None and stored[0] >= rem:
        return None, stored[1]
    return key, ()


def _stop(masks: list[int], needs: tuple, r: int, rem: int) -> int:
    """The first index >= r at which a slot lacking 0 needs more than rem.

    A node at that index or later, and its subtree, use only indices at or
    beyond it within rem, so that slot keeps lacking 0 and no row is kept
    there: the sibling loop ends at it.  Need grows with the index, as fewer
    indices remain (`_needs`), so a bisection of each lacking slot's needs
    finds it; need at rmax + 1 exceeds every rem, so one exists when some
    slot lacks 0, as every caller's does.
    """
    return min(
        bisect_right(need[mask], rem, r) for mask, need in zip(masks, needs) if not mask & 1
    )


def _suffixes(items: list, node: _Groups, node_rem: int) -> tuple:
    """The rows below node in items as `_walked`'s suffixes (runs, weight, lcm)."""
    n, (_, k) = len(node), node[-1]
    suffixes = []
    for groups, rem, _, _ in items:
        r, row_k = groups[n - 1]
        suffix = ((r, row_k - k),) + groups[n:] if row_k > k else groups[n:]
        suffixes.append((suffix, node_rem - rem, math.lcm(*[s for s, _ in suffix])))
    return tuple(suffixes)


def _replay(out: list, node: _Groups, node_rem: int, node_lcm: int, suffixes: tuple, rmax: int):
    """Append the rows of node's walked subtree that fit node_rem, from `_walked`'s suffixes.

    A row is node followed by the suffix, its first run merged into node's
    last when they share an index; its rem is node_rem less the suffix's
    weight and its lcm that of node_lcm and the suffix's.  Its witness is
    rebuilt as a walked row's is.
    """
    last, k = node[-1]
    for suffix, weight, suffix_lcm in suffixes:
        if weight > node_rem:
            continue
        if suffix[0][0] == last:
            row = node[:-1] + ((last, k + suffix[0][1]),) + suffix[1:]
        else:
            row = node + suffix
        witness = _witness_runs(row, rmax)
        if witness is None:
            raise RuntimeError("walk and witness rebuild disagree; this is a bug")
        out.append((row, node_rem - weight, math.lcm(node_lcm, suffix_lcm), witness))


def _scan(ctx, rmin: int, rem: int, prefix: _Groups, lcm: int, bad: int, head: int = 0) -> None:
    """Visit the extensions of prefix by indices >= rmin, in pre-order.

    Each node is followed by its extensions repeating its last index, then
    by larger indices; with head 1 only the node prefix + rmin is visited,
    and its extensions start at rmin + 1 (`_run_task`).  ctx is (out, masks,
    rmax, weights, rotations, scale, flt, floor, needs, walked).  masks
    holds prefix's per-prime l(2) masks and bad counts those that lack 0.
    A node looks up only the slots its index moves, and writes them into
    masks only while its subtree is scanned, so masks is as on entry when
    this returns.  No node with rem below floor is kept, and since weights
    grow with the index and a subtree only loses budget, the first sibling
    below floor ends the loop.  needs and walked are the l2-integral walk's
    cuts and memo, and None for every other filter: its loop ends at
    `_stop`, a node's subtree is cut or replayed as `_cut` says, and a
    walked one is stored.  A kept node's item (groups, rem, lcm, witness)
    goes to out: rem is c1c2 in units of scale, lcm the Cartier index and
    witness the integral basket's runs, rebuilt over the walk's rmax from
    its rotation memos, or None.
    """
    out, masks, rmax, weights, rotations, scale, flt, floor, needs, walked = ctx
    stop = rmin + 1 if head else rmax + 1
    if needs is not None and bad and not head:
        stop = _stop(masks, needs, rmin, rem)
    for r in range(rmin, stop):
        w = weights[r]
        node_rem = rem - w
        if node_rem < floor:
            break  # weights grow with r, so no later sibling is kept either
        moved = rotations[r]
        node_bad = bad
        for slot, rotation in moved:
            mask = masks[slot]
            node_bad += (mask & 1) - (rotation[mask] & 1)
        keep = flt.accepts(node_rem, scale, node_bad == 0)
        rnext = r + head  # its extensions start here
        walk = node_rem >= weights[rnext]
        replay = ()
        if walk and needs is not None:
            key, replay = _cut(masks, moved, needs, walked, rnext, node_rem)
            walk = key is not None
        if not (keep or walk or replay):
            continue  # dropped before its runs are built
        if prefix and prefix[-1][0] == r:
            node, node_lcm = prefix[:-1] + ((r, prefix[-1][1] + 1),), lcm
        else:
            node, node_lcm = prefix + ((r, 1),), math.lcm(lcm, r)
        if keep:
            witness = None if node_bad else _witness_runs(node, rmax)
            if witness is None and not node_bad:
                raise RuntimeError("walk and witness rebuild disagree; this is a bug")
            out.append((node, node_rem, node_lcm, witness))
        if replay:
            _replay(out, node, node_rem, node_lcm, replay, rmax)
        if walk:
            saved = [masks[slot] for slot, _ in moved]
            for slot, rotation in moved:
                masks[slot] = rotation[masks[slot]]
            kept = len(out)
            _scan(ctx, rnext, node_rem, node, node_lcm, node_bad)
            if needs is not None:
                walked[key] = (node_rem, _suffixes(out[kept:], node, node_rem))
            for (slot, _), mask in zip(moved, saved):
                masks[slot] = mask


def _run_task(args) -> list:
    """Filtered items for the multisets whose smallest run is (r0, k0).

    They are the head r0^k0 and its extensions by indices > r0, which
    `_scan` visits from the masks of r0^(k0 - 1), in lexicographic order of
    the expanded index sequence.  The task's l(2) masks are its own; only
    the rotation memos, and the l2-integral walk's cuts, are shared.  The
    task (r0, k0) = (1, 0) is the root, the empty multiset, alone: its rem
    is the budget, its Cartier index 1 and its witness the empty basket,
    with l(2) = 0, and it meets the filter here.

    The tasks run r0 ascending, then k0 descending, so a row past its
    task's head sorts after every row of the earlier tasks and before every
    row of the later ones.  A head r0^k0 sorts before the rows of the
    earlier tasks (r0, k > k0) too, but those, like its own extensions, are
    strictly heavier.  So among rows of equal rem the joined parts are in
    lexicographic order, which `_enumerate_raw`'s stable sort keeps.
    """
    max_weight, flt, r0, k0 = args
    rmax, scale, budget, weights, rotations = _frame(max_weight)
    if not k0:
        return [((), budget, 1, ())] if flt.accepts(budget, scale, True) else []
    masks = [1] * len(_prime_moduli(rmax))  # the empty multiset reaches 0 only
    for slot, rotation in rotations[r0]:
        for _ in range(k0 - 1):
            masks[slot] = rotation[masks[slot]]
    floor = 0
    if flt.kind == "c1c2-range":  # the least rem at or above lo * scale
        floor = max(0, -(-flt.lo.numerator * scale // flt.lo.denominator))
    needs = walked = None
    if flt.kind == "l2-integral":
        needs, walked = _needs(max_weight), _walked(max_weight)
    out: list = []
    ctx = (out, masks, rmax, weights, rotations, scale, flt, floor, needs, walked)
    prefix, lcm = (((r0, k0 - 1),), r0) if k0 > 1 else ((), 1)
    bad = sum(not mask & 1 for mask in masks)
    _scan(ctx, r0, budget - (k0 - 1) * weights[r0], prefix, lcm, bad, 1)
    return out


def _tasks(max_weight: Fraction, flt: RecordFilter, include_empty: bool = False) -> list:
    """The walk's tasks (max_weight, flt, r0, k0), r0 ascending, then k0 descending.

    With include_empty the root's task (max_weight, flt, 1, 0) comes first;
    its one row has the largest rem, so it sorts first too.
    """
    rmax, _, budget, weights, _ = _frame(max_weight)
    return [(max_weight, flt, 1, 0)] * include_empty + [
        (max_weight, flt, r, k)
        for r in range(2, rmax + 1)
        for k in range(budget // weights[r], 0, -1)
    ]


def _map_tasks(fn, tasks: list, jobs: int) -> list:
    """fn over the tasks, results in task order, with `jobs` processes.

    A pool hands the tasks out one at a time: the (2, k0) tasks hold 78 %
    of the chi = 2 census's rows, and the default chunking (21 tasks each)
    gave most of them to one worker.  Every worker has exited before this
    returns.  fn and the tasks are pickled, fn by name (a partial by its
    function's name).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1 or len(tasks) < 2:
        return [fn(task) for task in tasks]
    import multiprocessing  # only a pool needs it, so a serial run never imports it

    with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
        results = pool.map(fn, tasks, chunksize=1)
        pool.close()
        pool.join()
    return results


def _part(finish, task) -> tuple[list[int], object]:
    """A task's part: the rems of its items in walk order, and the items or their text.

    With finish the items become finish(items), one text with one
    newline-terminated line per item, in the same order.
    """
    items = _run_task(task)
    return [item[1] for item in items], items if finish is None else finish(items)


def _enumerate_raw(
    max_weight: Fraction, flt: RecordFilter, jobs: int, include_empty: bool = False, finish=None
) -> tuple[list, int]:
    """Filtered raw items (groups, rem, lcm, witness runs) in canonical order, and the scale.

    With include_empty the empty multiset is one more task (`_tasks`).
    With finish, each task turns its items into text (`_part`) and the
    rows are that text's lines, without their newlines; in a pool, finish
    is pickled by name, so it is a module-level function or a partial of
    one.  Canonical is weight ascending (rem descending), then
    lexicographic on the expanded index sequence, the order the joined
    parts have among equal rems (`_run_task`) and the stable sort keeps; so
    it never depends on task scheduling.
    """
    try:
        parts = _map_tasks(partial(_part, finish), _tasks(max_weight, flt, include_empty), jobs)
    finally:
        _walked.cache_clear()
    # the order is made while each task's part is whole; then the rems are
    # freed and the parts gathered one at a time, each freed once gathered,
    # so the rems and every row are never alive together
    rems = [rem for part_rems, _ in parts for rem in part_rems]
    order = sorted(range(len(rems)), key=rems.__getitem__, reverse=True)
    parts = [part for _, part in parts]
    del rems
    rows: list = []
    for i, part in enumerate(parts):
        parts[i] = None
        rows += part if finish is None else part.split("\n")[:-1]
    if len(rows) != len(order):
        raise RuntimeError("a rendered row is not one line; this is a bug")
    return [rows[i] for i in order], _frame(max_weight)[1]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector; on exit re-enable it only if it was on.

    Building the census leaves no reference cycle, so a collection while it
    runs finds nothing, yet each full one re-traverses every live record.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def enumerate_index_multisets(
    query: EnumerationQuery, jobs: int = 1
) -> list[ChernRecord]:
    """All index multisets with weight <= 24*chi0 passing the query filter.

    Records come in canonical order (weight ascending, then lexicographic
    on the expanded index sequence) regardless of `jobs`.  The walk and the
    record build run with the cyclic garbage collector paused.
    """
    with collector_paused():
        raw, scale = _enumerate_raw(
            Fraction(24 * query.chi0), query.filter, jobs, query.include_empty
        )
        # each raw item is replaced by its record in place, so the raw items
        # are freed while the records are built
        for i, (groups, rem, lcm, witness) in enumerate(raw):
            raw[i] = ChernRecord(
                indices=IndexMultiset(groups),
                chi0=query.chi0,
                c1c2=Fraction(rem, scale),
                cartier_index=lcm,
                witness=None if witness is None else _basket(witness),
            )
    return raw


def fraction_text(num: int, den: int) -> str:
    """`str(Fraction(num, den))` for den > 0, from integers alone."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


# the text of each index run (r, k) and witness run ((r, b), k), kept for the
# life of the process
_run_text = _Memo(lambda run: format_index_multiset(IndexMultiset((run,)))).__getitem__
_witness_run_text = _Memo(lambda run: format_basket(_basket((run,)))).__getitem__


def _witness_text(runs: _Runs) -> str:
    """The witness runs as `format_basket` prints their basket."""
    return ",".join(map(_witness_run_text, runs)) or format_basket(Basket())


def _checked_rows(items: list, chi0: int, scale: int) -> Iterator[tuple]:
    """Each raw item as the flat row of its record, after `check_record`.

    A row is (multiset, Cartier index, c1.c2, "true"/"false" for an integral
    basket, witness, scaled): texts as `chern3 enumerate` prints them, the
    witness "" when there is none, the Cartier index r_X an int and scaled
    = c1.c2 * r_X.  `check_record` has just verified that rem/scale =
    scaled/r_X, so c1.c2's text is reduced from scaled/r_X, a gcd of small
    ints, not from rem/scale.  The text of each index and witness run is made once
    per process, and the state of each head once per call (`_Heads`).
    """
    heads = _Heads()
    for groups, rem, lcm, witness in items:
        text, scaled = check_record(groups, chi0, rem, scale, lcm, witness, heads)
        if witness is None:
            yield text, lcm, fraction_text(scaled, lcm), "false", "", scaled
        else:
            yield text, lcm, fraction_text(scaled, lcm), "true", _witness_text(witness), scaled


def _checked_text(render, chi0: int, scale: int, items: list) -> str:
    """The items' checked rows as `render` writes them: `checked_lines`' finish."""
    return render(_checked_rows(items, chi0, scale))


def checked_lines(query: EnumerationQuery, render, jobs: int = 1) -> list[str]:
    """The records of `enumerate_index_multisets` as lines of text, without the records.

    render turns an iterable of flat rows, as `_checked_rows` makes them,
    into text with one newline-terminated line per row and no
    other newline.  Each walk task checks its rows with `check_record`, so
    a row is checked exactly as its record would be, and renders them; with
    `jobs` > 1 the tasks run in worker processes, so render must be a
    module-level function, pickled by name.  The parent only splits the
    texts at newlines and orders the lines.  Returns the lines, without
    their newlines, in the records' order.
    """
    max_weight = Fraction(24 * query.chi0)
    finish = partial(_checked_text, render, query.chi0, _frame(max_weight)[1])
    with collector_paused():
        return _enumerate_raw(max_weight, query.filter, jobs, query.include_empty, finish)[0]


def feasible_index_multisets(max_weight: Fraction) -> list[IndexMultiset]:
    """All non-empty index multisets of weight <= max_weight, canonically ordered.

    This is the bare pruned generator, exposed so it can be diffed against
    an unpruned oracle over arbitrary rational budgets.
    """
    raw, _ = _enumerate_raw(Fraction(max_weight), ALL, jobs=1)
    return [IndexMultiset(groups) for groups, *_ in raw]


def exists_integral_basket(indices: IndexMultiset) -> tuple[bool, Optional[Basket]]:
    """Does some b-assignment over the multiset make every l(m) integral?

    l(2) alone decides every m (`_check_witness`).  On success the
    lexicographically smallest witness is returned, ordering baskets by
    their canonical (r, b) point sequence (`_witness_runs`).
    """
    groups = indices.groups
    runs = _witness_runs(groups, groups[-1][0] if groups else 1)
    return (False, None) if runs is None else (True, _basket(runs))


def _witness_runs(groups: _Groups, rmax: int) -> Optional[_Runs]:
    """The smallest witness over canonical index runs as ((r, b), k) runs, or None.

    Decided by the walk's dynamic program: one mask of reachable numerators
    per prime p <= rmax (`_l2_parts`), since l(2) is integral exactly when
    every p-component is.  Suffix masks guide a greedy reconstruction that
    tries each run's b-combinations in lexicographic order, so the witness
    is the lexicographically smallest by its (r, b) point sequence.

    rmax bounds the primes the masks cover.  Any rmax at least the largest
    index gives the same answer and witness: no index moves a prime above
    it, and a higher power of a prime only rescales that prime's mask.  The
    walk passes its own, so the rebuild reads the walk's rotation memos.
    """
    # suffix[i] = per-prime masks reachable using groups i..end
    suffix = [[1] * len(_prime_moduli(rmax))]
    for r, mult in reversed(groups):
        masks = suffix[-1][:]
        for slot, rotation in _l2_rotations(r, rmax):
            for _ in range(mult):
                masks[slot] = rotation[masks[slot]]
        suffix.append(masks)
    suffix.reverse()

    if not all(mask & 1 for mask in suffix[0]):
        return None

    runs: tuple = ()
    prefix = [0] * len(suffix[0])  # per-prime numerators of the points chosen so far
    for (r, mult), rest in zip(groups, suffix[1:]):
        slots, choices = _run_choices(r, mult, rmax)
        for chosen, sums in copy(choices):
            # slots this run leaves alone keep -prefix reachable in rest
            if all(rest[slot] >> (-prefix[slot] - s) % n & 1 for s, (slot, n) in zip(sums, slots)):
                for s, (slot, n) in zip(sums, slots):
                    prefix[slot] = (prefix[slot] + s) % n
                runs += chosen
                break
        else:
            raise RuntimeError("reachability and reconstruction disagree; this is a bug")
    return runs


@lru_cache(maxsize=None)
def _run_choices(r: int, mult: int, rmax: int) -> tuple[tuple, Iterator]:
    """The b-choices for a run of mult points of index r <= rmax: (slots, choices).

    slots is `_l2_parts`' list of (slot, n).  choices yields (runs, sums)
    for the b-multisets in lexicographic order, skipping any whose sums
    equal an earlier one's, which the greedy rebuild would reject alike:
    runs are the multiset as witness runs and sums its numerators, one per
    slot, each modulo its n.  choices is a `tee`
    iterator that is never advanced, so a copy of it walks the choices from
    the start, and each choice is made on first demand, once per process.
    """
    slots, parts = _l2_parts(r, rmax)
    part = dict(parts)

    def choices():
        seen = set()
        for combo in combinations_with_replacement(part, mult):
            sums = tuple(sum(part[b][i] for b in combo) % n for i, (_, n) in enumerate(slots))
            if sums not in seen:
                seen.add(sums)
                yield tuple(((r, b), len(list(same))) for b, same in groupby(combo)), sums

    return slots, tee(choices(), 1)[0]


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
    produced = (tables.TableRow(rec.indices, rec.cartier_index, rec.c1c2) for rec in records)
    extra, missing = tables.set_diff(produced, fixture, key=_row_key)
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
