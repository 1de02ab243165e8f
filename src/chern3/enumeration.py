"""Pruned exact enumeration of index multisets under the bound sum(r - 1/r) <= 24*chi.

Since every local index r >= 2 contributes weight r - 1/r >= 3/2, the bound
leaves finitely many multisets; for chi <= 2 the search space is small
enough to exhaust on a desk machine.  The enumerator walks non-decreasing
index sequences depth-first, cutting a branch as soon as the remaining
weight budget cannot absorb another index.  All budget arithmetic is done
in integers scaled by lcm(1..r_max) times the budget denominator, so no
comparison ever involves a float or an unreduced fraction; `_frame` owns
that scale, the weight table and each index's l(2) step for a budget.

Alongside the multisets themselves, the walk tracks which values l(2)
takes modulo 1 over all admissible b-assignments.  By CRT a point's l(2)
term splits into one part per prime p dividing 2r, and the b choose those
parts independently, so the state is one bitmask per prime p <= r_max over
Z/p^e, p^e <= 2*r_max (`_prime_moduli`), and a point rotates the masks of
the primes it touches.  A multiset admits a basket with integral l(2)
exactly when 0 is reachable in every mask.  That settles every m at once:
for any basket l(m) = (1^2 + ... + (m-1)^2) * l(2) (mod 1), so integral
l(2) makes every l(m) integral.  `exists_integral_basket` runs the same DP
for a single multiset and rebuilds its witness.

The walk also carries each node's Cartier index (the running lcm of its
indices), passes every node, the empty multiset at its root included,
through one filter test in `_finish_node`, and visits nodes in
lexicographic order of the expanded index sequence, so a stable sort on
the scaled c1.c2 alone gives the canonical order.  The walk splits into
tasks, one per smallest run (`_tasks`), whose chunks joined in task order
are in that lexicographic order; `_map_tasks` runs them in order or in a
pool, and `_canonical_order` is the one stable sort.

`check_record` owns the record rules.  It re-checks c1.c2 and the Cartier
index in integers scaled by the lcm re-derived from the runs, and checks
that a witness has integral l(m) at every m with one integer scan over a
period (`first_fractional_l`), without using the congruence above.  The
library returns `ChernRecord`s, each checked on construction, from the
tasks' raw items.  `chern3 enumerate` uses `checked_lines` instead: each
task puts its items through the same check and renders them as text, with
no record, no `Fraction` and no float (md's approximate column aside), so
a pool's workers do all the per-row work and send back text.  The walk
and the record build leave no reference cycle and run with the cyclic
garbage collector paused (`collector_paused`); `cli.main` pauses it
around a whole command, whose records or rows are freed before
collection resumes.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import ClassVar, Iterator, Optional, Sequence

from . import tables
from .riemann_roch import (
    Basket,
    BasketPoint,
    IndexMultiset,
    c1c2_from_indices,  # noqa: F401  (perfbench/trace_cli.py times it here)
    cartier_index,  # noqa: F401  (perfbench/trace_cli.py times it here)
    first_fractional_l,
    format_basket,
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

    Construction passes the fields through `check_record`, which re-derives
    c1.c2 and the Cartier index from the multiset and re-checks the
    witness, so a record that exists is consistent.  `has_integral_basket`
    is read from the witness, which must have integral l(m) for every
    m >= 2.  Records are built with the cyclic collector paused by the
    enumerator, and `cli.main` keeps it paused until its command has freed
    them.
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
            self.cartier_index, self.witness,
        )


def check_record(
    groups: _Groups, chi0: int, num: int, den: int, lcm: int, witness: Optional[Basket]
) -> None:
    """Raise ValueError unless these are the fields of a consistent record.

    The one owner of the record rules, which `ChernRecord` and
    `checked_lines` both apply: the runs are canonical index runs, c1.c2 =
    num/den (den > 0) is 24*chi0 minus their weight and not negative, lcm
    is their Cartier index, and a witness projects onto the runs and has
    integral l(m) at every m.  c1.c2 is checked in integers scaled by the
    re-derived lcm, which every weight term r - 1/r has as a denominator.
    """
    if IndexMultiset.canonical_runs(groups) is not groups:
        raise ValueError(f"index runs {groups} are not ascending tuples")
    derived = math.lcm(*[r for r, _ in groups])
    weight = 0  # the weight sum(r - 1/r) times derived
    for r, k in groups:
        weight += k * (r * r - 1) * (derived // r)
    scaled = 24 * chi0 * derived - weight  # c1c2 * derived, by 24*chi0 = c1c2 + weight
    if num * derived != scaled * den:
        raise ValueError(
            f"c1c2 mismatch for {_runs_text(groups)}: "
            f"stated {Fraction(num, den)}, derived {Fraction(scaled, derived)}"
        )
    if scaled < 0:
        raise ValueError(f"{_runs_text(groups)} has negative c1c2 {Fraction(num, den)}")
    if lcm != derived:
        raise ValueError(f"Cartier index mismatch for {_runs_text(groups)}")
    if witness is not None:
        if witness.index_multiset().groups != groups:
            raise ValueError("witness does not project onto the index multiset")
        m = first_fractional_l(witness)
        if m is not None:
            raise ValueError(f"witness has non-integral l({m}) = {l_value(witness, m)}")


def _runs_text(groups: _Groups) -> str:
    return format_index_multiset(IndexMultiset(groups))


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


@lru_cache(maxsize=None)
def _l2_rotations(r: int, rmax: int) -> tuple[tuple[int, int, int, tuple[int, ...]], ...]:
    """The walk's l(2) step for index r: (slot, n, 2^n - 1, downs) per moved slot.

    A slot's reachable numerators are an n-bit mask.  A point with part s
    rotates it left by s, which is (d >> (n - s)) & (2^n - 1) for the mask
    d doubled to 2n bits; downs lists n - s for each distinct part s.
    """
    slots, parts = _l2_parts(r, rmax)
    return tuple(
        (slot, n, (1 << n) - 1, tuple(sorted({n - part[i] for _, part in parts})))
        for i, (slot, n) in enumerate(slots)
    )


def _add_l2(reach: tuple[int, ...], rotations) -> tuple[int, ...]:
    """Reachable l(2) masks, one per prime, after one more point with these rotations."""
    masks = list(reach)
    for slot, n, full, downs in rotations:
        d = masks[slot]
        d |= d << n
        acc = 0
        for t in downs:
            acc |= d >> t
        masks[slot] = acc & full
    return tuple(masks)


def _reaches_zero(reach: tuple[int, ...]) -> bool:
    """Is l(2) = 0 mod 1 reachable, i.e. 0 reachable in every prime's component?"""
    return all(mask & 1 for mask in reach)


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


def _scan(ctx, rmin: int, rem: int, prefix: _Groups, lcm: int, reach: tuple[int, ...]):
    """Visit the extensions of prefix by indices >= rmin, in pre-order.

    Each node is followed by its extensions repeating its last index, then
    by larger indices.  ctx is (out, rmax, weights, rotations, scale, flt).
    """
    out, rmax, weights, rotations, scale, flt = ctx
    for r in range(rmin, rmax + 1):
        w = weights[r]
        if w > rem:
            break
        if prefix[-1][0] == r:
            node, node_lcm = prefix[:-1] + ((r, prefix[-1][1] + 1),), lcm
        else:
            node, node_lcm = prefix + ((r, 1),), math.lcm(lcm, r)
        node_rem = rem - w
        node_reach = _add_l2(reach, rotations[r])
        _finish_node(out, node, node_rem, node_lcm, _reaches_zero(node_reach), scale, flt)
        _scan(ctx, r, node_rem, node, node_lcm, node_reach)


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
    rmax, scale, budget, weights, rotations = _frame(max_weight)
    out: list = []
    rem = budget - k0 * weights[r0]
    reach = (1,) * len(_prime_moduli(rmax))
    for k in range(1, k0 + 1):
        reach = _add_l2(reach, rotations[r0])
        if rem < weights[r0]:  # k0 is the largest that fits
            root_rem = budget - k * weights[r0]
            _finish_node(out, ((r0, k),), root_rem, r0, _reaches_zero(reach), scale, flt)
    ctx = (out, rmax, weights, rotations, scale, flt)
    _scan(ctx, r0 + 1, rem, ((r0, k0),), r0, reach)
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
    """Filtered raw items (groups, rem, lcm, witness) in canonical order, and the scale."""
    chunks = _map_tasks(_run_task, _tasks(max_weight, flt), jobs)
    raw = [item for chunk in chunks for item in chunk]
    order = _canonical_order([item[1] for item in raw])
    return [raw[i] for i in order], _frame(max_weight)[1]


def _root_items(query: EnumerationQuery, scale: int) -> list:
    """The walk's root, the empty multiset, as a raw item if the query emits it."""
    root: list = []
    if query.include_empty:
        # weight 0, Cartier index 1, and l(2) = 0 reachable
        _finish_node(root, (), 24 * query.chi0 * scale, 1, True, scale, query.filter)
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
        raw[:0] = _root_items(query, scale)
        # each raw item is replaced by its record in place, so the raw items
        # are freed while the records are built
        for i, (groups, rem, lcm, witness) in enumerate(raw):
            raw[i] = ChernRecord(
                indices=IndexMultiset(groups),
                chi0=query.chi0,
                c1c2=Fraction(rem, scale),
                cartier_index=lcm,
                witness=witness,
            )
    return raw


def fraction_text(num: int, den: int) -> str:
    """`str(Fraction(num, den))` for den > 0, from integers alone."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class _Texts(dict):
    """Text of each key, formatted on first use."""

    __slots__ = ("_format",)

    def __init__(self, format_key) -> None:
        super().__init__()
        self._format = format_key

    def __missing__(self, key) -> str:
        text = self[key] = self._format(key)
        return text


# the text of each index run (r, k), kept for the life of the process
_run_text = _Texts(lambda run: format_index_multiset(IndexMultiset((run,)))).__getitem__


def _checked_rows(items: list, chi0: int, scale: int) -> Iterator[tuple]:
    """Each raw item as the row (fields, num, den) of its record, after `check_record`.

    fields are the multiset, Cartier index, c1.c2, "true"/"false" for an
    integral basket and the witness ("" when there is none), as `chern3
    enumerate` prints them, and c1.c2 = num/den unreduced.  The arithmetic
    stays in integers; the text of each run is made once per process.
    """
    empty = format_index_multiset(IndexMultiset())
    for groups, rem, lcm, witness in items:
        check_record(groups, chi0, rem, scale, lcm, witness)
        fields = (
            ",".join(map(_run_text, groups)) if groups else empty,
            str(lcm),
            fraction_text(rem, scale),
            "false" if witness is None else "true",
            "" if witness is None else format_basket(witness),
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
        chunks = [_checked_text(_root_items(query, scale), chi0, scale, render)]
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


def exists_integral_basket(indices: IndexMultiset) -> tuple[bool, Optional[Basket]]:
    """Does some b-assignment over the multiset make every l(m) integral?

    For a point (b, r) and t = jb mod r, t(r - t) = jbr - j^2 b^2 (mod 2r).
    Summed over the basket and over j = 1..m-1 this gives

        l(m) = (1^2 + ... + (m-1)^2) * l(2)  (mod 1),

    so a basket with integral l(2) has integral l(m) for every m, and l(2)
    alone decides every m.  On success the lexicographically smallest
    witness is returned, ordering baskets by their canonical (r, b) point
    sequence.  Decided by the walk's dynamic program: one mask of reachable
    numerators per prime p <= the largest index (`_l2_parts`), since l(2)
    is integral exactly when every p-component is.  Suffix masks guide a
    greedy reconstruction that tries each run's b-combinations in
    lexicographic order.
    """
    groups = indices.groups
    rmax = groups[-1][0] if groups else 1

    # suffix[i] = per-prime masks reachable using groups i..end
    suffix = [(1,) * len(_prime_moduli(rmax))]
    for r, mult in reversed(groups):
        rotations = _l2_rotations(r, rmax)
        reach = suffix[-1]
        for _ in range(mult):
            reach = _add_l2(reach, rotations)
        suffix.append(reach)
    suffix.reverse()

    if not _reaches_zero(suffix[0]):
        return False, None

    chosen: list[BasketPoint] = []
    prefix = [0] * len(suffix[0])  # per-prime numerators of the points chosen so far
    for (r, mult), rest in zip(groups, suffix[1:]):
        slots, parts = _l2_parts(r, rmax)
        part = dict(parts)
        for combo in combinations_with_replacement(part, mult):
            totals = [
                prefix[slot] + sum(part[b][i] for b in combo)
                for i, (slot, _) in enumerate(slots)
            ]
            # slots this run leaves alone keep -prefix reachable in rest
            if all(rest[slot] >> (-t % n) & 1 for t, (slot, n) in zip(totals, slots)):
                for t, (slot, n) in zip(totals, slots):
                    prefix[slot] = t % n
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
