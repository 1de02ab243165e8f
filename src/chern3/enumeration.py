"""Pruned exact enumeration of index multisets under the bound sum(r - 1/r) <= 24*chi.

Every local index r >= 2 weighs r - 1/r >= 3/2, so the bound leaves finitely
many multisets.  A run passes through these layers:

- `_frame`: a budget's integers.  The budget, the weights and each node's
  rem (its c1.c2) are integers over one scale, so the walk meets no float
  and no `Fraction`.
- `_run_task` and its two walks, depth first over non-decreasing index
  sequences, one task per head r0^k0 and its extensions by larger indices
  (`_tasks`), each in the same pre-order.  The tasks are joined in task
  order, r0 ascending, then k0 descending, and run in its reverse
  (`_map_tasks`).  Every node the filter's walk visits meets one integer
  range of rems (`RecordFilter.window`) once: a sibling loop ends below its
  start, so a node, or an l(2) row, tests its stop alone.  The empty
  multiset is a task of its own, which `_run_task` tests.
  - The l(2) walk (`_l2_rows`, `_scan`) finds the task's rows with a
    basket with integral l(2) at or above the window's start, its floor,
    with no bound above.  A node carries its rem, its Cartier index
    and one l(2) bitmask per prime (`_prime_moduli`, `_l2_parts`,
    `_l2_rotations`); it has such a basket iff every mask holds 0.  A
    node whose subtree is walked hands it its own masks, the copy that
    `_cut` makes as it decides the subtree's cut.  The walk tests only
    nodes that can still lead to a row at or above the floor: a sibling
    loop ends where a slot lacking 0 needs more than the room above the
    floor (`_needs`, `_stop`), a subtree is cut on the same rule (`_cut`),
    and a subtree already walked with at least the room is replayed from
    one memo of its rows per budget, empty for a barren one (`_walked`,
    freed as the walk ends, and `_replay`).  `_run_task` keeps its rows
    in the window and rebuilds their witnesses at one site, before either
    hand-off: they are the l2-integral filter's items.
  - The weights walk (`_weigh`) serves every other filter.  A node carries
    its rem and Cartier index alone, with no l(2) mask; it joins the kept
    l(2) rows and their witnesses in order, by rem and then by runs, and
    raises if it never meets one.
  A witness is rebuilt as integer ((r, b), k) runs (`_witness_runs`),
  each run's rotations read from its index's step (`_l2_rotations`) and
  its b-choices from one memo per run (`_run_choices`).  A kept node's
  item is (head, last, rem, lcm, witness): its runs as all but the last,
  a tuple the walk already holds and shares among siblings, and the last
  run (r, k), one object per run for the process (`_frame`'s runs
  table).  So a leaf builds no runs tuple; head + (last,) is made only
  where a whole multiset is needed.  The empty multiset's item is
  ((), None, ...).
- `_enumerate_raw`, the one driver: the tasks run last first, so the l(2)
  walk's memo is filled at its largest rooms, in this process alone or in
  it and helper processes that take them from one queue and send their
  results once, and come back in task order (`_map_tasks`); one stable
  sort on rem puts their rows in canonical order.
- `_checked_rows`, the one generator that owns the record rules, the
  witness's (`_check_witness`) among them: it steps each row from its
  head's state, which it looks up (`_Heads`) only when the head is not the
  previous row's head object, with its last run's facts, made once per run
  (`_run`), and yields the row's flat record.  Each walk task runs it once
  over its items (`_checked_part`), with one head memo: `checked_lines`
  renders the rows there, one renderer per format writing each row as one
  line, c1.c2's text reduced over the row's own Cartier index, so a helper
  process sends back text; `enumerate_index_multisets` keeps the items,
  each with its row's c1.c2 over its own Cartier index.  `check_record` is
  its one-item input, which the public `ChernRecord(...)` passes.
- `enumerate_index_multisets` builds its records from the checked items
  (`ChernRecord._checked`), with `Basket` witnesses, and does not check
  them again; `min_positive_c1c2` and `count_candidates` fold over the
  tasks, run as the driver runs them, and `min_positive_c1c2` checks and
  builds records only for the attaining rows.

The walk and the record build leave no reference cycle and run with the
cyclic garbage collector paused (`collector_paused`).
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement, groupby, tee
from operator import attrgetter, is_, itemgetter
from typing import Iterator, Optional

from .riemann_roch import (
    Basket,
    BasketPoint,
    Frozen,
    IndexMultiset,
    c1c2_from_indices,  # noqa: F401  (perfbench/trace_cli.py times it here)
    cartier_index,  # noqa: F401  (perfbench/trace_cli.py times it here)
    check_point,
    format_basket,
    format_index_multiset,
    l_value,
)

DEFAULT_CHI_DOMAIN = (0, 1, 2)

# run-length multiset as used in tree nodes and task results
_Groups = tuple[tuple[int, int], ...]
# a witness as ((r, b), k) runs, strictly ascending by (r, b)
_Runs = tuple[tuple[tuple[int, int], int], ...]


class NoPositiveValueError(ValueError):
    """Raised when a minimum over positive c1.c2 values is requested but none exist."""


class RecordFilter(Frozen):
    """Which records are emitted: its kind, bounds (the CLI's --lo/--hi) and `window` live here alone."""

    __slots__ = _fields = ("kind", "lo", "hi")
    KINDS = ("all", "c1c2-zero", "l2-integral", "c1c2-range")

    def __init__(self, kind: str, lo: Optional[Fraction] = None, hi: Optional[Fraction] = None) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown filter kind {kind!r}")
        if kind == "c1c2-range":
            if lo is None or hi is None:
                raise ValueError("c1c2-range filter needs both bounds, --lo and --hi")
            if type(lo) not in (int, Fraction) or type(hi) not in (int, Fraction):
                raise ValueError(f"c1c2-range bounds must be ints or Fractions, got ({lo!r}, {hi!r})")
            lo, hi = Fraction(lo), Fraction(hi)
            if lo > hi:
                raise ValueError(f"empty range: {lo} > {hi}")
        elif lo is not None or hi is not None:
            raise ValueError(f"bounds --lo/--hi are only meaningful for c1c2-range, not {kind!r}")
        self._set(kind, lo, hi)

    def window(self, scale: int, budget: int) -> range:
        """The rems in 0..budget, c1.c2 * scale as ints, that this filter keeps.

        c1c2-range keeps ceil(lo * scale)..floor(hi * scale) and c1c2-zero 0.
        """
        if self.kind == "c1c2-zero":
            return range(1)
        if self.kind == "c1c2-range":
            lo = max(0, -(-self.lo.numerator * scale // self.lo.denominator))
            return range(lo, min(budget, self.hi.numerator * scale // self.hi.denominator) + 1)
        return range(budget + 1)


ALL = RecordFilter("all")
C1C2_ZERO = RecordFilter("c1c2-zero")
INTEGRAL_L2 = RecordFilter("l2-integral")


def c1c2_in_range(lo: Fraction, hi: Fraction) -> RecordFilter:
    return RecordFilter("c1c2-range", lo, hi)


class EnumerationQuery(Frozen):
    __slots__ = _fields = ("chi0", "filter", "include_empty", "allow_any_chi")

    def __init__(
        self, chi0: int, filter: RecordFilter = ALL, include_empty=False, allow_any_chi=False
    ) -> None:
        if type(chi0) is not int:
            raise ValueError(f"chi0 must be an int, got {chi0!r}")
        if chi0 < 0:
            raise ValueError(f"chi0 must be non-negative, got {chi0}")
        if not allow_any_chi and chi0 not in DEFAULT_CHI_DOMAIN:
            raise ValueError(f"chi0={chi0} is outside {{0, 1, 2}}; set allow_any_chi to explore anyway")
        self._set(chi0, filter, include_empty, allow_any_chi)


class ChernRecord(Frozen):
    """One admissible index multiset together with its exact Chern data.

    `ChernRecord(...)` passes the fields through `check_record`, the
    one-item input of the record rules' home (`_checked_rows`), which
    re-derives c1.c2 and the Cartier index from the multiset and re-checks
    the witness, as runs, so a record that exists is consistent.  The
    library builds its records from items that `_checked_rows` has already
    passed, once each, in the walk task that found them (`_checked`).
    `has_integral_basket` is read from the witness, which must have
    integral l(m) for every m >= 2.  Records are built with the cyclic
    collector paused by the enumerator, and `cli.main` keeps it paused
    until its command has freed them.
    """

    __slots__ = _fields = ("indices", "chi0", "c1c2", "cartier_index", "witness")
    # `check_record` derives c1.c2 and the Cartier index from indices and chi0, so these fix it
    _key = staticmethod(attrgetter("indices", "chi0", "witness"))

    def __init__(
        self, indices: IndexMultiset, chi0: int, c1c2: Fraction,
        cartier_index: int, witness: Optional[Basket] = None,
    ) -> None:
        check_record(
            indices.groups, chi0, c1c2.numerator, c1c2.denominator,
            cartier_index, None if witness is None else _runs(witness),
        )
        self._set(indices, chi0, c1c2, cartier_index, witness)

    @classmethod
    def _checked(cls, item: tuple, chi0: int) -> ChernRecord:
        """The record of a checked item (head, last, scaled, lcm, witness runs) (`_checked_part`).

        Its row is not checked again; a pickle or a copy runs `__init__`, and so the check.
        """
        head, last, scaled, lcm, witness = item
        record = cls.__new__(cls)
        basket = None if witness is None else _basket(witness)
        record._set(IndexMultiset(_whole(head, last)), chi0, Fraction(scaled, lcm), lcm, basket)
        return record

    @property
    def has_integral_basket(self) -> bool:
        return self.witness is not None


# the private constructor, bound once, so the library builds its records even
# where the module's `ChernRecord` is replaced by a wrapper, as
# perfbench/trace_cli.py replaces it to time the public constructor
_checked_record = ChernRecord._checked

def _runs(basket: Basket) -> _Runs:
    """A basket's witness runs ((r, b), k)."""
    return tuple(((point.r, point.b), k) for point, k in basket.groups)


def _basket(runs: _Runs) -> Basket:
    """The `Basket` of witness runs; each point passes `BasketPoint`'s checks."""
    return Basket(tuple((BasketPoint(b, r), k) for (r, b), k in runs))


def _runs_state(groups: _Groups) -> tuple[int, int, int, str]:
    """(lcm, weight * lcm, last index, text) of canonical index runs, from scratch.

    Each run's k(r^2 - 1) and text are the facts of `_run`'s equal run.
    Raises ValueError, as `IndexMultiset` does, for runs that are not
    canonical index runs, which are runs of ints alone.  The empty
    multiset's last index is 1, below every index; its text is the
    empty-set sign.
    """
    if IndexMultiset.canonical_runs(groups) is not groups:
        raise ValueError(f"index runs {groups} are not ascending tuples")
    derived = math.lcm(*[r for r, _ in groups])
    weight, texts = 0, []  # the weight sum(r - 1/r) times derived
    for run in groups:
        r, w, text = _RUN_FACTS.get(id(run)) or _RUN_FACTS[id(_run(*run))]
        weight += w * (derived // r)
        texts.append(text)
    return derived, weight, groups[-1][0] if groups else 1, (
        ",".join(texts) or format_index_multiset(IndexMultiset()))


# the index runs (r, k) that the walks hand the check (`_frame`), one object
# per run, kept for the life of the process, so every budget's walk shares
# them and a run's id names that object alone; and the facts
# (r, k(r^2 - 1), text) of each, keyed by its id, so no other object, equal
# or not, finds them
_RUNS: dict = {}
_RUN_FACTS: dict = {}
_NO_FACTS = (0, 0, "")  # below every last index, so the step never takes the run


def _run(r: int, k: int) -> tuple[int, int]:
    """The process's one object of the index run (r, k) of ints, its facts made on first use.

    Raises ValueError, as `IndexMultiset` does, for a run it rejects.
    """
    run = _RUNS.get((r, k))
    if run is None:
        run = (r, k)
        _RUN_FACTS[id(run)] = (r, k * (r * r - 1), format_index_multiset(IndexMultiset((run,))))
        _RUNS[run] = run
    return run


class _Heads(dict):
    """`_checked_rows`' memo of one call's heads: head -> (head, lcm, weight, last index, text).

    An entry holds the head object it was made from, and so the run
    objects it was derived from, and `_checked_rows` trusts it only for
    that object: any other head, equal or not, is derived again (`derive`).
    A new head whose runs but the last are the very run objects of its
    parent's entry, found with one slice and one lookup, and whose last run
    is one of `_run`'s, is stepped from that entry by `_checked_rows`' one
    step; any other is derived from scratch (`_runs_state`), as
    `check_record` derives it.  So a run such as (7, 1.0), equal to (7, 1)
    and hashing alike, never takes another run's state.  The memo lives and
    dies in one call, so no task shares or pickles it.
    """

    __slots__ = ()

    def derive(self, head) -> tuple[tuple, object]:
        """(state, run): head's new entry and None, or its parent's entry and head's last run."""
        if self and head and type(head) is tuple:
            parent = self.get(head[:-1])
            if (parent is not None and id(head[-1]) in _RUN_FACTS
                    and all(map(is_, parent[0], head))):
                return parent, head[-1]
        state = self[head] = (head, *_runs_state(head))
        return state, None


def _whole(head: _Groups, last) -> _Groups:
    """The runs of the item (head, last): head and the last run, or head alone if last is None.

    A head that is not a tuple gives a list, which no check takes for runs.
    """
    if last is None:
        return head
    return head + (last,) if type(head) is tuple else [*head, last]


def check_record(
    groups: _Groups, chi0: int, num: int, den: int, lcm: int, witness: Optional[_Runs]
) -> tuple[str, int]:
    """Raise ValueError unless these are the fields of a consistent record; else (text, scaled).

    The record rules, which every record and every row passes, have one
    home, `_checked_rows`; this is its one-item input, the runs
    as a head with no last run, which a fresh head memo derives from
    scratch.  The text is the runs as `format_index_multiset` prints them,
    and scaled is c1.c2 * lcm, an int, so num/den = scaled/lcm once the
    checks pass.
    """
    [(text, *_, scaled)] = _checked_rows(((groups, None, num, lcm, witness),), chi0, den)
    return text, scaled


def _check_witness(runs: _Runs, groups: _Groups, r_x: int) -> None:
    """Raise ValueError unless the runs are a basket over groups with integral l(m) at every m.

    Every run ((r, b), k) is a point that `check_point` accepts, so r and b
    are ints, with an int k >= 1 (a bool is none), checked before any text
    of the run is made or kept (`_witness_run_text`); the runs strictly
    ascend by (r, b), their indices project onto the canonical index runs
    groups, whose lcm is r_X, and l(2) is integral:
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
        if type(k) is not int:
            raise ValueError(f"multiplicity of point ({b},{r}) must be an int, got {k!r}")
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
def _l2_rotations(r: int, rmax: int) -> tuple:
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
def _frame(max_weight: Fraction) -> tuple[int, int, int, tuple[int, ...], tuple, tuple]:
    """The walk's integers for a budget: (rmax, scale, budget, weights, rotations, runs).

    The budget and weights[r] = r - 1/r are in units of 1/scale, with scale =
    lcm(1..rmax) * the budget's denominator; rotations[r] is index r's l(2)
    step over `_prime_moduli(rmax)`.  weights[rmax + 1] is budget + 1, more
    than any node has left, so no node extends beyond rmax.  runs[r][k] is
    the run (r, k), for every k >= 1 that fits the budget, from the
    process's one set (`_run`), so every walk hands the check the same
    objects.
    """
    rmax = max_index(max_weight)
    lcm_all = math.lcm(*range(1, rmax + 1))
    scale = lcm_all * max_weight.denominator
    budget = max_weight.numerator * lcm_all
    weights = [0] * (rmax + 1) + [budget + 1]
    rotations = [()] * (rmax + 1)
    runs = [()] * (rmax + 1)
    for r in range(2, rmax + 1):
        weights[r] = (r * lcm_all - lcm_all // r) * max_weight.denominator
        rotations[r] = _l2_rotations(r, rmax)
        runs[r] = (None, *(_run(r, k) for k in range(1, budget // weights[r] + 1)))
    return rmax, scale, budget, tuple(weights), tuple(rotations), tuple(runs)


@lru_cache(maxsize=None)
def _needs(max_weight: Fraction) -> tuple[dict, ...]:
    """The l(2) walk's need table for a budget: needs[slot][mask][r].

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
    rmax, _, budget, weights, rotations, _ = _frame(max_weight)
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
    """The l(2) walk's memo of walked subtrees for a budget, kept for one walk.

    It maps a subtree's key (next index, masks) to (room, suffixes): the
    largest room at which the extensions of a node with those masks by
    indices >= next index were walked, and the suffixes of the rows kept
    there, in pre-order, each as (runs, weight, lcm).  A node's room is its
    rem less the walk's floor, and the walk keeps every row with integral
    l(2) at or above its floor, so no stop leaves a stored subtree partial:
    a row below the node is kept iff its suffix weighs at most the room.
    A barren subtree's suffixes are empty, and every cut is exact, so they
    are all the subtree's suffixes of weight <= room with integral l(2).  Whether a row has integral l(2) depends on its
    masks alone, which are the key's after the suffix, and a smaller room
    walks, in the same order, the extensions of the larger one that fit it;
    so a later node with that key and no larger room, whatever its walk's
    floor, keeps exactly the stored suffixes of weight <= its room, and the
    walk replays them (`_replay`) instead of walking the subtree (`_cut`).
    The memo and the need table are per budget, and what they record does
    not depend on which tasks ran before, so neither does a task's items;
    the order decides only how often a key is walked again, at a larger
    room, which is why the tasks run last first (`_map_tasks`).  The memo
    lives until the walk that filled it ends: `_map_tasks`, which runs
    every walk, clears it then, whether the walk ran in this process alone
    or with helper processes that each kept their own.
    """
    return {}


def _cut(masks: list[int], moved: tuple, needs: tuple, walked: dict, r: int, room: int):
    """(key, below) for a subtree: its memo key (r, *masks) and its masks if the walk must walk it.

    The subtree is the extensions by indices >= r, weighing at most room,
    of the node whose masks are masks after the rotations moved, which
    this makes as a copy.  A slot lacking 0 whose need exceeds room cuts
    it, (None, ()); a memo entry walked with at least room gives (None, its
    suffixes) to replay; else it is (key, the copy), the node's own masks,
    which the walk hands down to the subtree's walk (`_scan`).
    """
    masks = masks[:]
    for slot, rotation in moved:
        masks[slot] = rotation[masks[slot]]
    for mask, need in zip(masks, needs):
        if not mask & 1 and need[mask][r] > room:
            return None, ()  # that slot needs more than room
    key = (r, *masks)
    stored = walked.get(key)
    if stored is not None and stored[0] >= room:
        return None, stored[1]
    return key, masks


def _stop(masks: list[int], needs: tuple, r: int, room: int) -> int:
    """The first index >= r at which a slot lacking 0 needs more than room.

    A node at that index or later, and its subtree, use only indices at or
    beyond it within room, so that slot keeps lacking 0 and no row is kept
    there: the sibling loop ends at it.  Need grows with the index, as fewer
    indices remain (`_needs`), so a bisection of each lacking slot's needs
    finds it; need at rmax + 1 exceeds every room, so one exists when some
    slot lacks 0, as every caller's does.
    """
    return min(
        bisect_right(need[mask], room, r) for mask, need in zip(masks, needs) if not mask & 1
    )


def _suffixes(rows: list, node_head: _Groups, node_last: tuple[int, int], node_rem: int) -> tuple:
    """The rows below a node in rows as `_walked`'s suffixes (runs, weight, lcm).

    The node's runs are node_head + (node_last,), and its rem is node_rem.
    """
    n, k = len(node_head) + 1, node_last[1]
    suffixes = []
    for head, last, rem, _ in rows:
        groups = head + (last,)
        r, row_k = groups[n - 1]
        suffix = ((r, row_k - k),) + groups[n:] if row_k > k else groups[n:]
        suffixes.append((suffix, node_rem - rem, math.lcm(*[s for s, _ in suffix])))
    return tuple(suffixes)


def _replay(
    out: list, node_head: _Groups, node_last: tuple[int, int], node_rem: int, node_lcm: int,
    suffixes: tuple, room: int, runs: tuple,
):
    """Append the rows of a node's walked subtree that fit its room, from `_walked`'s suffixes.

    A row is the node's runs followed by a suffix of weight <= room, its
    first run merged into the node's last when they share an index, as
    runs[last][k] (`_frame`); its rem is node_rem less the suffix's weight
    and its lcm that of node_lcm and the suffix's.  It is carried as (all
    runs but the last, the last).
    """
    last, k = node_last
    for suffix, weight, suffix_lcm in suffixes:
        if weight > room:
            continue
        if suffix[0][0] == last:
            row = node_head + (runs[last][k + suffix[0][1]],) + suffix[1:]
        else:
            row = node_head + (node_last,) + suffix
        out.append((row[:-1], row[-1], node_rem - weight, math.lcm(node_lcm, suffix_lcm)))


def _scan(
    ctx, masks: list[int], rmin: int, rem: int, head: _Groups, last, lcm: int, bad: int,
    once: int = 0,
) -> None:
    """The l(2) walk: the rows with integral l(2) among the extensions of (head, last), in pre-order.

    The extensions are by indices >= rmin; each is followed by its own
    extensions repeating its last index, then by larger indices, and with
    once = 1 only the node + rmin is visited, and its extensions start at
    rmin + 1 (`_l2_rows`).  The node's runs are head + (last,), or head
    alone when last is None.  masks holds the node's per-prime l(2) masks
    and bad counts those that lack 0; ctx is (out, rmax, weights,
    rotations, floor, needs, walked, runs), runs `_frame`'s table.  A
    visited node looks up only the slots its index moves, and a walked
    subtree gets its node's own masks, the copy `_cut` made, so no call
    writes into masks.

    A node is kept iff it has integral l(2) and its rem is at least the
    floor, an int: the walk is bounded below only, so it keeps every such
    row of a walked subtree, as `_walked` needs.  A node's room is its rem
    less the floor: a sibling loop ends at `_stop`, or where the rem falls
    below the floor, as weights grow with the index; a node's subtree is
    cut or replayed as `_cut` says against the room, and a walked one is
    stored with its room.

    A kept node's row (head, last, rem, lcm) goes to out: its runs as all
    but the last, a tuple shared with its siblings, and the last run
    (r, k) from the runs table; rem is c1c2 in units of scale and lcm the
    Cartier index.  A node repeating this node's last index has this
    node's head; any other has this node's runs, built once here.
    """
    out, rmax, weights, rotations, floor, needs, walked, runs = ctx
    if last is None:
        prefix, repeat, k = head, 0, 0
    else:
        prefix, (repeat, k) = head + (last,), last
    stop = rmin + 1 if once else rmax + 1
    if bad and not once:
        stop = _stop(masks, needs, rmin, rem - floor)
    for r in range(rmin, stop):
        node_rem = rem - weights[r]
        if node_rem < floor:
            break  # weights grow with r, so no later sibling is kept either
        moved = rotations[r]
        node_bad = bad
        for slot, rotation in moved:
            mask = masks[slot]
            node_bad += (mask & 1) - (rotation[mask] & 1)
        keep = not node_bad
        rnext = r + once  # its extensions start here
        room = node_rem - floor
        key, below = None, ()
        if room >= weights[rnext]:
            key, below = _cut(masks, moved, needs, walked, rnext, room)
        if not (keep or key or below):
            continue  # dropped before its last run is built
        if r == repeat:
            node_head, node_last, node_lcm = head, runs[r][k + 1], lcm
        else:
            node_head, node_last, node_lcm = prefix, runs[r][1], math.lcm(lcm, r)
        if keep:
            out.append((node_head, node_last, node_rem, node_lcm))
        if key:
            kept = len(out)
            _scan(ctx, below, rnext, node_rem, node_head, node_last, node_lcm, node_bad)
            walked[key] = (room, _suffixes(out[kept:], node_head, node_last, node_rem))
        elif below:
            _replay(out, node_head, node_last, node_rem, node_lcm, below, room, runs)


def _l2_rows(max_weight: Fraction, r0: int, k0: int, floor: int) -> list:
    """The task (r0, k0)'s rows (head, last, rem, lcm) with integral l(2) and rem >= floor.

    They come in the task's pre-order (`_run_task`), from `_scan` entered at
    the head r0^k0 with the masks of r0^(k0 - 1); with no bound above, a
    subtree stored in `_walked` is whole.  The masks are the task's own;
    the rotation memos, the need table and `_walked` are shared.
    """
    rmax, _, budget, weights, rotations, runs = _frame(max_weight)
    masks = [1] * len(_prime_moduli(rmax))  # the empty multiset reaches 0 only
    for slot, rotation in rotations[r0]:
        for _ in range(k0 - 1):
            masks[slot] = rotation[masks[slot]]
    out: list = []
    ctx = (out, rmax, weights, rotations, floor, _needs(max_weight), _walked(max_weight), runs)
    last, lcm = (runs[r0][k0 - 1], r0) if k0 > 1 else (None, 1)
    bad = sum(not mask & 1 for mask in masks)
    _scan(ctx, masks, r0, budget - (k0 - 1) * weights[r0], (), last, lcm, bad, 1)
    return out


def _weigh(ctx, rmin: int, rem: int, head: _Groups, last, lcm: int, joins: int, once: int = 0) -> int:
    """The weights walk: the extensions by indices >= rmin of (head, last) in window, in pre-order.

    It visits every node whose rem is at least window.start, in the
    pre-order that `_scan` keeps its rows in, from weights alone: no l(2)
    mask, rotation or memo.  ctx is (out, rmax, weights, window, integral,
    runs), runs `_frame`'s table, and once is as in `_scan`.  A node is
    kept iff its rem is in window: the first sibling below window.start
    ends the loop, so a node tests window.stop alone.  integral is a
    stack of the task's items with integral l(2) in window, their
    witnesses already rebuilt (`_run_task`), the next one on top, in the
    pre-order `_l2_rows` gives their rows in, over a sentinel of rem -1,
    and joins is the top item's rem, which this returns as the walk leaves
    it.  A kept node that is the top item, by rem first and then by runs,
    pops it and takes its witness; any other has none.

    A kept node's item (head, last, rem, lcm, witness) goes to out, built
    as `_scan` builds its rows.
    """
    out, rmax, weights, window, integral, runs = ctx
    floor, stop = window.start, window.stop
    if last is None:
        prefix, repeat, k = head, 0, 0
    else:
        prefix, (repeat, k) = head + (last,), last
    for r in range(rmin, rmin + 1 if once else rmax + 1):
        node_rem = rem - weights[r]
        if node_rem < floor:
            break  # weights grow with r, so no later sibling is kept either
        keep = node_rem < stop
        walk = node_rem >= weights[r + once]  # its extensions start at r + once
        if not (keep or walk):
            continue
        if r == repeat:
            node_head, node_last, node_lcm = head, runs[r][k + 1], lcm
        else:
            node_head, node_last, node_lcm = prefix, runs[r][1], math.lcm(lcm, r)
        if keep:
            if node_rem != joins or node_last != integral[-1][1] or node_head != integral[-1][0]:
                out.append((node_head, node_last, node_rem, node_lcm, None))
            else:
                out.append((node_head, node_last, node_rem, node_lcm, integral.pop()[4]))
                joins = integral[-1][2]
        if walk:
            joins = _weigh(ctx, r + once, node_rem, node_head, node_last, node_lcm, joins)
    return joins


def _witness(runs: _Groups, rmax: int) -> _Runs:
    """The witness runs of index runs that the l(2) walk found integral, rebuilt over rmax."""
    witness = _witness_runs(runs, rmax)
    if witness is None:
        raise RuntimeError("walk and witness rebuild disagree; this is a bug")
    return witness


def _run_task(args) -> list:
    """Filtered items (head, last, rem, lcm, witness) of the multisets with smallest run (r0, k0).

    They are the head r0^k0 and its extensions by indices > r0, in
    pre-order, which is lexicographic order of the expanded index sequence.
    The l(2) walk (`_l2_rows`), bounded below by the window's floor alone,
    runs for every filter: its rows below the window's stop, their
    witnesses rebuilt here at the rebuild's one site (`_witness`), are the
    l2-integral filter's items, and any other filter's weights walk
    (`_weigh`) joins them, each witness to its node, so witnesses are
    rebuilt for the kept rows alone; a row the join never meets raises.
    The task (r0, k0) = (1, 0) is the root, the empty multiset, alone: its
    item is ((), None, ...), the runs () with no last run, its rem is the
    budget, its Cartier index 1 and its witness the empty basket, with
    l(2) = 0, and it meets the task's one window of the filter here.

    The tasks join in task order, r0 ascending, then k0 descending
    (`_tasks`), whatever order they run in (`_map_tasks`), so a row past its
    task's head sorts after every row of the earlier tasks and before every
    row of the later ones.  A head r0^k0 sorts before the rows of the
    earlier tasks (r0, k > k0) too, but those, like its own extensions, are
    strictly heavier.  So among rows of equal rem the joined parts are in
    lexicographic order, which `_enumerate_raw`'s stable sort keeps.
    """
    max_weight, flt, r0, k0 = args
    rmax, scale, budget, weights, _, runs = _frame(max_weight)
    window = flt.window(scale, budget)
    if not k0:
        return [((), None, budget, 1, ())] if budget in window else []
    if budget - k0 * weights[r0] < window.start:
        return []  # the head lies below the floor, and its extensions weigh more
    integral = [
        (head, last, rem, lcm, _witness(head + (last,), rmax))
        for head, last, rem, lcm in _l2_rows(max_weight, r0, k0, window.start)
        if rem < window.stop
    ]
    if flt.kind == "l2-integral":
        return integral
    integral = [((), None, -1, 0, None)] + integral[::-1]
    out: list = []
    last, lcm = (runs[r0][k0 - 1], r0) if k0 > 1 else (None, 1)
    start = budget - (k0 - 1) * weights[r0]
    _weigh((out, rmax, weights, window, integral, runs), r0, start, (), last, lcm,
           integral[-1][2], 1)
    if len(integral) > 1:
        raise RuntimeError("the weights walk never met a row of the l(2) walk; this is a bug")
    return out


def _tasks(max_weight: Fraction, flt: RecordFilter, include_empty: bool = False) -> list:
    """The walk's tasks (max_weight, flt, r0, k0) in task order: r0 ascending, then k0 descending.

    Their rows are joined, or folded, in this order (`_run_task`); they run
    in its reverse (`_map_tasks`).  With include_empty the root's task
    (max_weight, flt, 1, 0) comes first; its one row has the largest rem,
    so it sorts first too.
    """
    rmax, _, budget, weights, *_ = _frame(max_weight)
    return [(max_weight, flt, 1, 0)] * include_empty + [
        (max_weight, flt, r, k)
        for r in range(2, rmax + 1)
        for k in range(budget // weights[r], 0, -1)
    ]


def _map_tasks(fn, tasks: list, jobs: int) -> list:
    """fn over the tasks, run last first, with `jobs` processes, this one included; results in task order.

    Every walk runs its tasks here, and last first, for the l(2) walk's memo
    of walked subtrees (`_walked`): a key is walked again whenever a node
    meets it with more room than it was stored with, and when the tasks run
    last first a key is usually met first near the top of a light task,
    where it has the most room it will get.  At chi = 2 that walks 1,936
    subtrees for the 1,238 keys, where task order walks 3,097.  What a task
    returns does not depend on the order (`_walked`), so each result is put
    at its task's index, which is what the callers join or fold.

    With jobs >= 2 this process and jobs - 1 helpers (`_help`) take task
    indices, last first, from one queue, filled once the helpers have
    started; each helper sends its results, or its error, once, through its
    own pipe, and they are placed after this process's own tasks run out.
    An error raised here or in a helper is raised unchanged, and a helper
    that exits without sending raises a RuntimeError.  Every helper has
    exited before this returns, and the memo of walked subtrees is freed,
    whether the tasks ran or raised.  Except under fork, fn and the tasks
    are pickled, fn by name (a partial by its function's name).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    results: list = [None] * len(tasks)
    order = reversed(range(len(tasks)))
    helpers: list = []
    try:
        if jobs > 1 and len(tasks) > 1:
            import multiprocessing  # only helpers need it, so a serial run never imports it

            queue = multiprocessing.SimpleQueue()
            for _ in range(min(jobs, len(tasks)) - 1):
                receive, send = multiprocessing.Pipe(duplex=False)
                helper = multiprocessing.Process(target=_help, args=(fn, tasks, queue, send), daemon=True)
                helper.start()
                helpers.append((helper, receive))
                send.close()  # so a helper that exits unsent ends its pipe
            for i in order:
                queue.put(i)
            for _ in range(len(helpers) + 1):
                queue.put(None)
            order = iter(queue.get, None)
        for i in order:
            results[i] = fn(tasks[i])
        for helper, receive in helpers:
            try:
                sent = receive.recv()
            except EOFError:
                helper.join()
                raise RuntimeError(
                    f"helper {helper.name} exited with code {helper.exitcode} before sending its results"
                ) from None
            if isinstance(sent, BaseException):
                raise sent
            for i, result in sent:
                results[i] = result
    except BaseException:
        for helper, _ in helpers:
            helper.terminate()
        raise
    finally:
        for helper, receive in helpers:
            helper.join()
            receive.close()
        _walked.cache_clear()
    return results


def _help(fn, tasks: list, queue, send) -> None:
    """A helper process of `_map_tasks`: fn over the tasks whose indices it takes, to the sentinel None.

    It sends its (index, result) pairs, or its error, once, at the end.
    """
    try:
        sent = [(i, fn(tasks[i])) for i in iter(queue.get, None)]
    except Exception as exc:
        sent = exc
    send.send(sent)
    send.close()


def _part(finish, task) -> tuple[list[int], object]:
    """A task's part: the rems of its items in walk order, and the items or their text.

    The items are (head, last, rem, lcm, witness) (`_run_task`).  With finish
    they become finish(items): the items, checked, or one text with one
    newline-terminated line per item, in the same order (`_checked_part`).
    """
    items = _run_task(task)
    return list(map(itemgetter(2), items)), items if finish is None else finish(items)


def _enumerate_raw(
    max_weight: Fraction, flt: RecordFilter, jobs: int, include_empty: bool = False, finish=None
) -> tuple[list, int]:
    """Filtered raw items (head, last, rem, lcm, witness runs) in canonical order, and the scale.

    An item's runs are head + (last,), or head alone when last is None,
    as for the empty multiset (`_run_task`).  With include_empty
    the empty multiset is one more task (`_tasks`).
    With finish, each task checks its items (`_part`), and the rows are
    the checked items or, when finish returns text, that text's lines,
    without their newlines; for helper
    processes, finish is pickled by name, so it is a module-level function
    or a partial of one.  Canonical is weight ascending (rem descending), then
    lexicographic on the expanded index sequence, the order the joined
    parts have among equal rems (`_run_task`) and the stable sort keeps; so
    it never depends on task scheduling.
    """
    parts = _map_tasks(partial(_part, finish), _tasks(max_weight, flt, include_empty), jobs)
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
        rows += part if type(part) is list else part.split("\n")[:-1]
    if len(rows) != len(order):
        raise RuntimeError("a rendered row is not one line; this is a bug")
    return list(map(rows.__getitem__, order)), _frame(max_weight)[1]


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
    on the expanded index sequence) regardless of `jobs`.  Each walk task
    checks its items once, as for `checked_lines`, and each record is built
    from its item without a second check (`ChernRecord._checked`).  The
    walk and the record build run with the cyclic garbage collector paused.
    """
    with collector_paused():
        raw = _checked_raw(query, None, jobs)[0]
        # each item is replaced by its record in place, so the items are
        # freed while the records are built
        for i, item in enumerate(raw):
            raw[i] = _checked_record(item, query.chi0)
    return raw


# the text of each witness run ((r, b), k), kept for the life of the
# process and keyed by value; only runs of ints that `_check_witness` has
# passed reach it, so a run such as ((2, 1), 4.0), equal to ((2, 1), 4),
# never makes or takes its text
_witness_run_text = _Memo(lambda run: format_basket(_basket((run,)))).__getitem__


def _witness_text(runs: _Runs) -> str:
    """The witness runs as `format_basket` prints their basket."""
    return ",".join(map(_witness_run_text, runs)) or format_basket(Basket())


def _checked_rows(items, chi0: int, den: int, heads: Optional[_Heads] = None) -> Iterator[tuple]:
    """Each item (head, last, num, lcm, witness), checked, as the flat row of its record.

    The one owner of the record rules, which every row and every record
    passes, once: the runs head + (last,), or head alone when
    last is None, are canonical index runs; c1.c2 = num/den (den > 0) is
    24*chi0 minus their weight and not negative; lcm is their Cartier
    index; and a witness, given as runs ((r, b), k), passes
    `_check_witness`.  c1.c2 is checked in integers scaled by the
    re-derived lcm, which every weight term r - 1/r has as a denominator.

    A head's (head, lcm, weight, last index, text) comes from heads, a
    `_Heads` memo, and is looked up only when the head is not the previous
    row's head object, as it is for most of a walk's rows; an entry made
    from another object is derived again (`_Heads.derive`).  Then the
    loop's one step adds last = (r, k), a run of the process's one set
    (`_run`) whose index is above the head's last index, from its facts
    (r, k(r^2 - 1), text), made once per run: the runs are canonical iff
    the head's are, lcm = lcm(head lcm, r), and c1.c2 * lcm is the head's
    own, rescaled, less k(r^2 - 1) * (lcm / r).  A new head that `derive`
    steps from its parent's entry takes the same step first, with its own
    last run, and is kept.  So every rule still re-derives from the runs
    alone.  Runs the step cannot take, any last run of another object
    among them, are derived whole from scratch, as `check_record` derives
    them, which raises `IndexMultiset`'s error.

    A row is (multiset, Cartier index, c1.c2, "true"/"false" for an
    integral basket, witness, scaled): texts as `chern3 enumerate` prints
    them, the witness "" when there is none, the Cartier index r_X an int
    and scaled = c1.c2 * r_X.  Once num/den = scaled/r_X is checked,
    c1.c2's text is scaled/r_X reduced by their gcd.  The text of each
    index and witness run is made once per process.
    """
    heads = _Heads() if heads is None else heads
    base = 24 * chi0
    facts_of, lcm_of, gcd = _RUN_FACTS.get, math.lcm, math.gcd
    previous = object()  # the previous row's head, at first none
    stepped = None  # a new head's last run, stepped before the row's
    for head, last, num, lcm, witness in items:
        run = last
        if head is not previous:
            try:
                state = heads.get(head)
                if state is None or state[0] is not head:
                    state, stepped = heads.derive(head)
            except (TypeError, ValueError):  # not canonical runs, or unhashable
                _runs_state(_whole(head, last))  # raises, naming the row's runs
                raise
            runs, head_lcm, head_weight, head_r, head_text = state
            head_scaled = base * head_lcm - head_weight  # the head's own c1c2 * head_lcm
            prefix = f"{head_text}," if runs else ""
            previous = head
            if stepped is not None:
                run = stepped
        while True:  # the one step: a new head's last run first, then the row's
            r, w, run_text = facts_of(id(run), _NO_FACTS)
            if head_r >= r:  # not one of `_run`'s runs above the head's last index
                if run is None:  # the runs are the head alone
                    derived, scaled, text = head_lcm, head_scaled, head_text
                else:
                    derived, weight, r, text = _runs_state(_whole(head, last))
                    scaled = base * derived - weight  # c1c2 * derived, as 24*chi0 = c1c2 + weight
                break
            derived = lcm_of(head_lcm, r)
            scaled = head_scaled * (derived // head_lcm) - w * (derived // r)
            text = prefix + run_text
            if stepped is None:
                break
            heads[head] = runs, head_lcm, head_weight, head_r, head_text = (
                head, derived, base * derived - scaled, r, text)
            head_scaled, prefix = scaled, f"{text},"
            run, stepped = last, None
        if num * derived != scaled * den:
            raise ValueError(
                f"c1c2 mismatch for {text}: "
                f"stated {Fraction(num, den)}, derived {Fraction(scaled, derived)}"
            )
        if scaled < 0:
            raise ValueError(f"{text} has negative c1c2 {Fraction(num, den)}")
        if lcm != derived:
            raise ValueError(f"Cartier index mismatch for {text}")
        g = gcd(scaled, lcm)
        c1c2 = str(scaled // g) if g == lcm else f"{scaled // g}/{lcm // g}"
        if witness is None:
            yield text, lcm, c1c2, "false", "", scaled
        else:
            _check_witness(witness, _whole(head, last), derived)
            yield text, lcm, c1c2, "true", _witness_text(witness), scaled


def _checked_part(render, chi0: int, scale: int, items: list):
    """A task's items checked in one `_checked_rows` loop, with one head memo: the driver's finish.

    With render, their rows as render writes them (`checked_lines`); with
    render None, the checked items (head, last, scaled, lcm, witness), each
    item's c1.c2 as scaled over its own Cartier index, as its row has it.
    """
    rows = _checked_rows(items, chi0, scale)
    if render is not None:
        return render(rows)
    return [(head, last, row[-1], lcm, runs) for (head, last, _, lcm, runs), row in zip(items, rows)]


def _checked_raw(query: EnumerationQuery, render, jobs: int) -> tuple[list, int]:
    """The query's checked items (`_checked_part`), or their lines, in canonical order, and the scale."""
    max_weight = Fraction(24 * query.chi0)
    finish = partial(_checked_part, render, query.chi0, _frame(max_weight)[1])
    return _enumerate_raw(max_weight, query.filter, jobs, query.include_empty, finish)


def checked_lines(query: EnumerationQuery, render, jobs: int = 1) -> list[str]:
    """The records of `enumerate_index_multisets` as lines of text, without the records.

    render turns an iterable of flat rows, as `_checked_rows` makes them,
    into text with one newline-terminated line per row and no other
    newline.  Each walk task checks its rows in one `_checked_rows` loop,
    the rules' one home, as it does for the library's records, and renders
    them; with `jobs` > 1 the tasks run in helper processes too, so render
    must be a module-level function, pickled by name.  `_enumerate_raw` then
    splits the texts at newlines and orders the lines.  Returns the lines,
    without their newlines, in the records' order.
    """
    with collector_paused():
        return _checked_raw(query, render, jobs)[0]


def feasible_index_multisets(max_weight: Fraction) -> list[IndexMultiset]:
    """All non-empty index multisets of weight <= max_weight, canonically ordered.

    This is the bare pruned generator, exposed so it can be diffed against
    an unpruned oracle over arbitrary rational budgets.
    """
    raw, _ = _enumerate_raw(Fraction(max_weight), ALL, jobs=1)
    return [IndexMultiset(head + (last,)) for head, last, *_ in raw]


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

    Each run takes its rotations from the step of index r (`_l2_rotations`)
    and then its slots and b-choices from `_run_choices`, and folds a
    slot's mult rotations in a local.  rmax bounds the primes the masks
    cover.  Any rmax at least the largest index gives the same answer and
    witness: no index moves a prime above it, and a higher power of a
    prime only rescales that prime's mask.  The walk passes its own, so the
    rebuild reads the walk's rotation memos.
    """
    # suffix[-1 - i] = per-prime masks reachable using runs i..end
    masks = [1] * len(_prime_moduli(rmax))
    suffix = [masks]
    for r, mult in reversed(groups):
        masks = masks[:]
        for slot, rotation in _l2_rotations(r, rmax):
            mask = masks[slot]
            for _ in range(mult):
                mask = rotation[mask]
            masks[slot] = mask
        suffix.append(masks)
    for mask in masks:
        if not mask & 1:
            return None

    runs: tuple = ()
    prefix = [0] * len(masks)  # per-prime numerators of the points chosen so far
    for (r, mult), rest in zip(groups, suffix[-2::-1]):
        slots, choices = _run_choices(r, mult, rmax)
        for chosen, sums in choices.__copy__():
            # slots this run leaves alone keep -prefix reachable in rest
            for s, (slot, n) in zip(sums, slots):
                if not rest[slot] >> (-prefix[slot] - s) % n & 1:
                    break
            else:
                for s, (slot, n) in zip(sums, slots):
                    prefix[slot] = (prefix[slot] + s) % n
                runs += chosen
                break
        else:
            raise RuntimeError("reachability and reconstruction disagree; this is a bug")
    return runs


@lru_cache(maxsize=None)
def _run_choices(r: int, mult: int, rmax: int) -> tuple[tuple, object]:
    """The b-choices for a run of mult points of index r <= rmax: (slots, choices).

    slots is `_l2_parts`' list of (slot, n).  choices yields (runs, sums)
    for the b-multisets in lexicographic order, skipping any whose sums
    equal an earlier one's, which the greedy rebuild would reject alike:
    runs are the multiset as witness runs and sums its numerators, one per
    slot, each modulo its n.  It is a `tee` that never advances, so each
    reader iterates a copy of it: a choice is made when a rebuild first
    reads that far.  The pair is kept for the process, so a choice is made
    once.
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


def min_positive_c1c2(
    chi0: int, require_integral: bool = False
) -> tuple[Fraction, list[IndexMultiset]]:
    """Smallest positive c1.c2 over the enumerated records, with every attaining multiset.

    A fold over the walk tasks, run as `_enumerate_raw` runs them
    (`_map_tasks`): each task keeps its least positive rem and the items
    attaining it, in walk order, and their results come back in task
    order, which is canonical among equal rems (`_run_task`), so no rows
    are sorted or gathered; only the attaining items are checked, in one
    `_checked_rows` loop, and become records.  The memo of walked subtrees
    is freed as the walk ends (`_map_tasks`).
    """
    query = EnumerationQuery(chi0=chi0, filter=INTEGRAL_L2 if require_integral else ALL)
    max_weight = Fraction(24 * chi0)

    def least_of(task) -> tuple[Optional[int], list]:
        least, attaining = None, []
        for item in _run_task(task):
            rem = item[2]
            if rem and (least is None or rem <= least):
                if rem != least:
                    least, attaining = rem, []
                attaining.append(item)
        return least, attaining

    with collector_paused():
        parts = _map_tasks(least_of, _tasks(max_weight, query.filter), 1)
        least = min((rem for rem, _ in parts if rem is not None), default=None)
        if least is None:
            under = " under the integral-basket filter" if require_integral else ""
            raise NoPositiveValueError(f"no positive c1c2 value for chi0={chi0}{under}")
        scale = _frame(max_weight)[1]
        attaining = [item for rem, items in parts if rem == least for item in items]
        records = [_checked_record(item, chi0) for item in _checked_part(None, chi0, scale, attaining)]
    return records[0].c1c2, [rec.indices for rec in records]


def count_candidates(chi0: int, flt: RecordFilter = ALL, include_empty: bool = False) -> int:
    """Number of records the corresponding enumeration emits, counted without building them.

    It sums the walk tasks' lengths, the tasks run as `_enumerate_raw`
    runs them (`_map_tasks`), so no rows are sorted or gathered; the memo
    of walked subtrees is freed as the walk ends, as `_map_tasks` frees it
    for every walk.
    """
    query = EnumerationQuery(chi0=chi0, filter=flt, include_empty=include_empty)
    tasks = _tasks(Fraction(24 * chi0), query.filter, query.include_empty)
    with collector_paused():
        return sum(_map_tasks(lambda task: len(_run_task(task)), tasks, 1))


def effective_bound(
    min_positive: Fraction, max_cube: Fraction = Fraction(324)
) -> Fraction:
    """max_cube / min_positive, the uniform constant in c1^3 <= b * c1.c2."""
    min_positive = Fraction(min_positive)
    if min_positive <= 0:
        raise ValueError(f"division by non-positive value {min_positive}")
    return Fraction(max_cube) / min_positive
