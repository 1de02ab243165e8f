"""Pruned exact enumeration of index multisets under the bound sum(r - 1/r) <= 24*chi.

Every local index r >= 2 weighs r - 1/r >= 3/2, so the bound leaves finitely
many multisets.  A run passes through these layers:

- `_frame`: a budget's integers.  The budget, the weights and each node's
  rem (its c1.c2) are integers over one scale, so the walk meets no float
  and no `Fraction`.
- `_run_task` and `_scan`: the walk, depth first over non-decreasing index
  sequences, one task per smallest run (`_tasks`).  A node carries its rem,
  its Cartier index and one l(2) bitmask per prime (`_prime_moduli`,
  `_l2_parts`, `_l2_rotations`); it has a basket with integral l(2) iff
  every mask holds 0.  Every walked node, the empty multiset at the root
  (`_root_items`) included, meets the filter once, and the l2-integral walk
  skips subtrees that keep no row (`_needs`, `_barren`).
- `_finish_node` and `_witness_runs`: each kept node with integral l(2)
  gets its witness rebuilt, as integer ((r, b), k) runs.
- `_map_tasks` and `_canonical_order`: the tasks run in order or in a
  pool, and one stable sort on rem puts their rows in canonical order.
- `check_record`: the record rules, the witness's (`_check_witness`)
  among them, which every record and every row passes.
- `enumerate_index_multisets` turns the rows into `ChernRecord`s with
  `Basket` witnesses; `checked_lines` checks and renders each task's rows
  inside the task (`_checked_rows`), so a pool's workers send back text.

The walk and the record build leave no reference cycle and run with the
cyclic garbage collector paused (`collector_paused`).
"""

from __future__ import annotations

import gc
import math
import multiprocessing
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


def check_record(
    groups: _Groups, chi0: int, num: int, den: int, lcm: int, witness: Optional[_Runs],
    heads: Optional[dict] = None,
) -> str:
    """Raise ValueError unless these are the fields of a consistent record; else the runs' text.

    The one owner of the record rules, which `ChernRecord` and
    `checked_lines` both apply: the runs are canonical index runs, c1.c2 =
    num/den (den > 0) is 24*chi0 minus their weight and not negative, lcm
    is their Cartier index, and a witness, given as runs ((r, b), k), passes
    `_check_witness`.  c1.c2 is checked in integers scaled by the
    re-derived lcm, which every weight term r - 1/r has as a denominator.
    The text is the runs as `format_index_multiset` prints them.

    The walk makes every node by adding one run to its parent or bumping
    the parent's last run, so a row's runs are a head, all runs but the
    last, plus the last run (r, k); the chi = 2 census's 216,683 rows have
    28,738 distinct heads.  The head's state (`_runs_state`) is derived
    from scratch, or read from heads, a `_Memo` of `_runs_state` that
    `_checked_rows` keeps for one task's rows; then one step adds the last
    run: the runs are canonical iff the head is and r is above its last
    index with k >= 1, lcm = lcm(head lcm, r), and the weight is the head's
    rescaled plus k(r^2 - 1)/r.  So the memo changes no outcome: every rule
    still re-derives from the runs alone, and a row costs one run's work.
    The empty multiset, and runs the step cannot take, are derived whole
    from scratch, which raises `IndexMultiset`'s error for bad runs.
    """
    try:
        head, (r, k) = groups[:-1], groups[-1]
        head_lcm, head_weight, head_last, head_text = (
            _runs_state(head) if heads is None else heads[head]
        )
        stepped = (
            type(groups) is tuple and type(groups[-1]) is tuple and head_last < r and not k < 1
        )
    except (IndexError, TypeError, ValueError):  # empty, an unhashable head, or bad runs
        stepped = False
    if stepped:
        derived = math.lcm(head_lcm, r)
        weight = head_weight * (derived // head_lcm) + k * (r * r - 1) * (derived // r)
        text = f"{head_text},{_run_text(groups[-1])}" if head else _run_text(groups[-1])
    else:
        derived, weight, _, text = _runs_state(groups)
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
    return text


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
    step over `_prime_moduli(rmax)`.
    """
    rmax = max_index(max_weight)
    lcm_all = math.lcm(*range(1, rmax + 1))
    scale = lcm_all * max_weight.denominator
    weights = [0] * (rmax + 1)
    rotations = [()] * (rmax + 1)
    for r in range(2, rmax + 1):
        weights[r] = (r * lcm_all - lcm_all // r) * max_weight.denominator
        rotations[r] = _l2_rotations(r, rmax)
    budget = max_weight.numerator * lcm_all
    return rmax, scale, budget, tuple(weights), tuple(rotations)


@lru_cache(maxsize=None)
def _needs(max_weight: Fraction) -> tuple[tuple[dict, ...], ...]:
    """The l2-integral walk's need table for a budget: needs[r][slot][mask].

    For r <= rmax + 1 and a slot's mask lacking 0, it is the least weight of
    indices >= r that brings 0 into that mask (in `_frame`'s units), or
    budget + 1 when none within the budget does.  A node's subtree is its
    extensions by indices >= its own within its remaining budget, and the
    indices of an extension that move a slot weigh no more than the
    extension; so a node with a slot lacking 0 whose need exceeds its
    remaining budget keeps no row below it, and the walk cuts it (`_cut`).

    The masks are those the slot reaches from {0} within the budget.
    Rotations commute, so a cheapest multiset can take its copies of the
    slot's smallest mover first; need at that mover's position is the least
    over t copies of it plus the need, at the next position, of the mask
    they make.  A path that fits the budget left after its mask only passes
    masks reached within the budget, so the least weight is exact wherever
    it fits.  The table for r is the one of the first mover >= r, so
    indices share one dict per slot and mover position.
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
        columns.append(column)
    return tuple(zip(*columns))


def _finish_node(
    out: list, groups: _Groups, rem: int, lcm: int, l2_reachable: bool, rmax: int
) -> None:
    """Append the item (groups, rem, lcm, witness) for one walked node to out.

    rem is c1c2 in units of the walk's scale, lcm the Cartier index and
    witness the integral basket's runs ((r, b), k) or None.  The caller has
    tested the node against the filter, once, so a node it rejects never
    gets here.  The witness is rebuilt over the walk's rmax, so it reads the
    walk's rotation memos.
    """
    witness = None
    if l2_reachable:
        witness = _witness_runs(groups, rmax)
        if witness is None:
            raise RuntimeError("walk and witness rebuild disagree; this is a bug")
    out.append((groups, rem, lcm, witness))


@lru_cache(maxsize=None)
def _barren(max_weight: Fraction) -> dict:
    """The l2-integral walk's memo of barren subtrees for a budget, kept per process.

    It maps (next index, masks) to the largest remaining budget at which
    the extensions of a node with those masks by indices >= next index were
    walked and none was kept.  Whether the filter keeps a node depends on
    its masks alone, and a smaller budget walks a subset of the same
    extensions, so a later subtree with that key and no larger budget keeps
    nothing either, and the walk skips it (`_cut`).  The memo and the need
    table are per budget, and what they record does not depend on which
    tasks ran before, so neither does a task's chunk.
    """
    return {}


def _cut(masks: list[int], moved: tuple, needs: tuple, barren: dict, r: int, rem: int):
    """The memo key (r, *masks) of a subtree to walk, or None when a cut skips it.

    The subtree is the extensions by indices >= r, within rem, of the node
    whose masks are masks after the rotations moved.  Only the l2-integral
    walk asks.
    """
    masks = masks[:]
    for slot, rotation in moved:
        masks[slot] = rotation[masks[slot]]
    for mask, need in zip(masks, needs[r]):
        if not mask & 1 and need[mask] > rem:
            return None  # that slot needs more than rem
    key = (r, *masks)
    return None if barren.get(key, -1) >= rem else key


def _scan(ctx, rmin: int, rem: int, prefix: _Groups, lcm: int, bad: int) -> None:
    """Visit the extensions of prefix by indices >= rmin, in pre-order.

    Each node is followed by its extensions repeating its last index, then
    by larger indices.  ctx is (out, masks, rmax, weights, rotations, scale,
    flt, floor, needs, barren).  masks holds prefix's per-prime l(2) masks
    and bad counts those that lack 0.  A node looks up only the slots its
    index moves, and writes them into masks only while its subtree is
    scanned, so masks is as on entry when this returns.  No node with rem
    below floor is kept, and since weights grow with the index and a
    subtree only loses budget, the first sibling below floor ends the loop.
    needs and barren are the l2-integral walk's cuts (`_cut`), and None for
    every other filter.
    """
    out, masks, rmax, weights, rotations, scale, flt, floor, needs, barren = ctx
    for r in range(rmin, rmax + 1):
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
        walk = node_rem >= w  # its extensions start at r
        if walk and needs is not None:
            key = _cut(masks, moved, needs, barren, r, node_rem)
            walk = key is not None
        if not (keep or walk):
            continue  # dropped before its runs are built
        if prefix[-1][0] == r:
            node, node_lcm = prefix[:-1] + ((r, prefix[-1][1] + 1),), lcm
        else:
            node, node_lcm = prefix + ((r, 1),), math.lcm(lcm, r)
        if keep:
            _finish_node(out, node, node_rem, node_lcm, node_bad == 0, rmax)
        if walk:
            saved = [masks[slot] for slot, _ in moved]
            for slot, rotation in moved:
                masks[slot] = rotation[masks[slot]]
            kept = len(out)
            _scan(ctx, r, node_rem, node, node_lcm, node_bad)
            if needs is not None and len(out) == kept:
                barren[key] = node_rem
            for (slot, _), mask in zip(moved, saved):
                masks[slot] = mask


def _run_task(args) -> list:
    """Filtered items for the multisets whose smallest run is (r0, k0).

    The items come in lexicographic order of the expanded index sequence,
    and so do the chunks of the tasks listed by r0 ascending, then k0
    descending: every root r0^k sorts before every longer sequence starting
    with r0, and the subtree of r0^(k+1) before that of r0^k.  So the task
    with the largest k0 that fits first emits the roots r0, ..., r0^k0, and
    every task emits the subtree of r0^k0 extended by larger indices.  The
    task's l(2) masks are its own; only the rotation memos, and the
    l2-integral walk's cuts, are shared.
    """
    max_weight, flt, r0, k0 = args
    rmax, scale, budget, weights, rotations = _frame(max_weight)
    out: list = []
    rem = budget - k0 * weights[r0]
    masks, bad = [1] * len(_prime_moduli(rmax)), 0  # the empty multiset reaches 0 only
    for k in range(1, k0 + 1):
        for slot, rotation in rotations[r0]:
            mask = masks[slot]
            masks[slot] = rotation[mask]
            bad += (mask & 1) - (masks[slot] & 1)
        root_rem = budget - k * weights[r0]
        # only the task whose k0 is the largest that fits emits the roots
        if rem < weights[r0] and flt.accepts(root_rem, scale, bad == 0):
            _finish_node(out, ((r0, k),), root_rem, r0, bad == 0, rmax)
    floor = 0
    if flt.kind == "c1c2-range":  # the least rem at or above lo * scale
        floor = max(0, -(-flt.lo.numerator * scale // flt.lo.denominator))
    needs = barren = None
    if flt.kind == "l2-integral":
        needs, barren = _needs(max_weight), _barren(max_weight)
    ctx = (out, masks, rmax, weights, rotations, scale, flt, floor, needs, barren)
    key = None if needs is None else _cut(masks, (), needs, barren, r0 + 1, rem)
    if needs is None or key is not None:
        kept = len(out)
        _scan(ctx, r0 + 1, rem, ((r0, k0),), r0, bad)
        if needs is not None and len(out) == kept:
            barren[key] = rem
    return out


def _tasks(max_weight: Fraction, flt: RecordFilter) -> list:
    """The walk's tasks (max_weight, flt, r0, k0), in output order (see `_run_task`)."""
    rmax, _, budget, weights, _ = _frame(max_weight)
    return [
        (max_weight, flt, r, k)
        for r in range(2, rmax + 1)
        for k in range(budget // weights[r], 0, -1)
    ]


def _map_tasks(fn, tasks: list, jobs: int) -> list:
    """fn over the tasks, results in task order, with `jobs` processes.

    A pool hands the tasks out one at a time: the (2, k0) tasks hold 78 %
    of the chi = 2 census's rows, and the default chunking (21 tasks each)
    gave most of them to one worker.  Every worker has exited before this
    returns.  fn and the tasks are pickled, fn by name.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1 or len(tasks) < 2:
        return [fn(task) for task in tasks]
    with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
        results = pool.map(fn, tasks, chunksize=1)
        pool.close()
        pool.join()
    return results


def _canonical_order(rems: list[int]) -> list[int]:
    """Positions of the rows, joined in task order, in canonical order.

    Canonical is weight ascending (rem descending), then lexicographic on
    the expanded index sequence, which the stable sort keeps from the task
    order among equal weights; so it never depends on task scheduling.
    """
    return sorted(range(len(rems)), key=rems.__getitem__, reverse=True)


def _enumerate_raw(max_weight: Fraction, flt: RecordFilter, jobs: int) -> tuple[list, int]:
    """Filtered raw items (groups, rem, lcm, witness runs) in canonical order, and the scale."""
    chunks = _map_tasks(_run_task, _tasks(max_weight, flt), jobs)
    raw = [item for chunk in chunks for item in chunk]
    order = _canonical_order([item[1] for item in raw])
    return [raw[i] for i in order], _frame(max_weight)[1]


def _root_items(query: EnumerationQuery) -> list:
    """The walk's root, the empty multiset, as a raw item if the query emits it."""
    rmax, scale, *_ = _frame(Fraction(24 * query.chi0))
    rem = 24 * query.chi0 * scale  # weight 0, Cartier index 1, and l(2) = 0 reachable
    root: list = []
    if query.include_empty and query.filter.accepts(rem, scale, True):
        _finish_node(root, (), rem, 1, True, rmax)
    return root


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
        raw, scale = _enumerate_raw(Fraction(24 * query.chi0), query.filter, jobs)
        raw[:0] = _root_items(query)
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
    """Each raw item as the row (fields, num, den) of its record, after `check_record`.

    fields are the multiset, Cartier index, c1.c2, "true"/"false" for an
    integral basket and the witness ("" when there is none), as `chern3
    enumerate` prints them, and c1.c2 = num/den unreduced.  The arithmetic
    stays in integers; the text of each index and witness run is made once
    per process, and the state of each head once per call: that memo lives
    and dies here, so no task shares or pickles it.
    """
    heads = _Memo(_runs_state)
    for groups, rem, lcm, witness in items:
        fields = (
            check_record(groups, chi0, rem, scale, lcm, witness, heads),
            str(lcm),
            fraction_text(rem, scale),
            "false" if witness is None else "true",
            "" if witness is None else _witness_text(witness),
        )
        yield fields, rem, scale


def _checked_text(items: list, chi0: int, scale: int, render) -> tuple[list[int], str]:
    """(rems, text): the items' rems and their checked rows as `render` writes them."""
    return [item[1] for item in items], render(_checked_rows(items, chi0, scale))


def _render_task(args) -> tuple[list[int], str]:
    """`checked_lines`' task: `_run_task`'s items, checked and rendered.

    args is (task, chi0, render).  Returns the rem of each item in walk
    order and one text with one line per item, in the same order.
    """
    task, chi0, render = args
    return _checked_text(_run_task(task), chi0, _frame(task[0])[1], render)


def checked_lines(query: EnumerationQuery, render, jobs: int = 1) -> list[str]:
    """The records of `enumerate_index_multisets` as lines of text, without the records.

    render turns an iterable of rows (fields, num, den), as `_checked_rows`
    makes them, into text with one newline-terminated line per row and no
    other newline.  Each walk task checks its rows with `check_record`, so
    a row is checked exactly as its record would be, and renders them; with
    `jobs` > 1 the tasks run in worker processes, so render must be a
    module-level function, pickled by name.  The parent only splits the
    texts at newlines and orders the lines.  Returns the lines, without
    their newlines, in the records' order.
    """
    chi0, max_weight = query.chi0, Fraction(24 * query.chi0)
    scale = _frame(max_weight)[1]
    with collector_paused():
        tasks = [(task, chi0, render) for task in _tasks(max_weight, query.filter)]
        # the root has the largest rem, so it sorts first
        chunks = [_checked_text(_root_items(query), chi0, scale, render)]
        chunks += _map_tasks(_render_task, tasks, jobs)
        rems = [rem for chunk_rems, _ in chunks for rem in chunk_rems]
        lines = [line for _, text in chunks for line in text.split("\n")[:-1]]
        del chunks  # free the texts before the ordered copy of the lines is built
        if len(lines) != len(rems):
            raise RuntimeError("a rendered row is not one line; this is a bug")
        return [lines[i] for i in _canonical_order(rems)]


def feasible_index_multisets(max_weight: Fraction) -> list[IndexMultiset]:
    """All non-empty index multisets of weight <= max_weight, canonically ordered.

    This is the bare pruned generator, exposed so it can be diffed against
    an unpruned oracle over arbitrary rational budgets.
    """
    raw, _ = _enumerate_raw(Fraction(max_weight), ALL, jobs=1)
    return [IndexMultiset(groups) for groups, *_ in raw]


def exists_integral_basket(
    indices: IndexMultiset, rmax: Optional[int] = None
) -> tuple[bool, Optional[Basket]]:
    """Does some b-assignment over the multiset make every l(m) integral?

    l(2) alone decides every m (`_check_witness`).  On success the
    lexicographically smallest witness is returned, ordering baskets by
    their canonical (r, b) point sequence (`_witness_runs`).

    rmax, by default the largest index, bounds the primes the masks cover.
    Any rmax at least the largest index gives the same answer and witness:
    no index moves a prime above it, and a higher power of a prime only
    rescales that prime's mask.
    """
    groups = indices.groups
    largest = groups[-1][0] if groups else 1
    if rmax is None:
        rmax = largest
    elif rmax < largest:
        raise ValueError(f"rmax {rmax} is below the largest index {largest}")
    runs = _witness_runs(groups, rmax)
    return (False, None) if runs is None else (True, _basket(runs))


def _witness_runs(groups: _Groups, rmax: int) -> Optional[_Runs]:
    """The smallest witness over canonical index runs as ((r, b), k) runs, or None.

    Decided by the walk's dynamic program: one mask of reachable numerators
    per prime p <= rmax (`_l2_parts`), since l(2) is integral exactly when
    every p-component is.  Suffix masks guide a greedy reconstruction that
    tries each run's b-combinations in lexicographic order, so the witness
    is the lexicographically smallest by its (r, b) point sequence.  rmax is
    at least the largest index; the walk passes its own, so the rebuild
    reads the walk's rotation memos.
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
