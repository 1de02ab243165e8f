"""Enumeration tests: oracle equivalence, table reproduction, integral baskets."""

import gc
import multiprocessing
import random
import re
import sys
from collections import Counter
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement, groupby, product, zip_longest
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chern3 import (
    ALL,
    C1C2_ZERO,
    INTEGRAL_L2,
    Basket,
    BasketPoint,
    ChernRecord,
    EnumerationQuery,
    IndexMultiset,
    NoPositiveValueError,
    RecordFilter,
    c1c2_from_indices,
    c1c2_in_range,
    cartier_index,
    count_candidates,
    effective_bound,
    enumerate_index_multisets,
    exists_integral_basket,
    feasible_index_multisets,
    format_index_multiset,
    l_value,
    min_positive_c1c2,
    parse_basket,
    parse_index_multiset,
    reproduce_table,
)
from chern3 import cli, enumeration, tables
from chern3.enumeration import _enumerate_raw, checked_lines, max_index
from test_riemann_roch import first_fractional_l


def weight(indices_tuple):
    return sum((Fraction(r * r - 1, r) for r in indices_tuple), Fraction(0))


def naive_multisets(max_weight):
    """Unpruned oracle: all sorted index tuples, filtered by total weight."""
    max_weight = Fraction(max_weight)
    found = set()
    rmax = 2
    while Fraction((rmax + 1) ** 2 - 1, rmax + 1) <= max_weight:
        rmax += 1
    if max_weight < Fraction(3, 2):
        return found
    max_len = int(max_weight / Fraction(3, 2))
    for length in range(1, max_len + 1):
        for combo in combinations_with_replacement(range(2, rmax + 1), length):
            if weight(combo) <= max_weight:
                found.add(combo)
    return found


# one filter of every kind; the ranges put c1c2 = 0 and c1c2 = 24 on either side
EVERY_FILTER_KIND = [
    ALL,
    C1C2_ZERO,
    INTEGRAL_L2,
    c1c2_in_range(Fraction(0), Fraction(1, 2)),
    c1c2_in_range(Fraction(23), Fraction(24)),
    c1c2_in_range(Fraction(24), Fraction(48)),
]


def filter_keeps(flt, c1c2):
    """Does a record with this c1c2 and integral l(2) pass the filter?  In Fractions."""
    if flt.kind == "c1c2-zero":
        return c1c2 == 0
    if flt.kind == "c1c2-range":
        return flt.lo <= c1c2 <= flt.hi
    return True


def empty_multiset_passes(flt, chi0):
    """Does the empty multiset, c1c2 = 24*chi0 and l(m) = 0, pass the filter?"""
    return filter_keeps(flt, 24 * chi0)


def admissible_b(r):
    return [b for b in range(1, r // 2 + 1) if gcd(b, r) == 1]


def brute_force_witness(indices, depth=2):
    """First b-assignment, in lexicographic order, with l(2..depth) integral.

    Tries every assignment directly, independent of the sumset DP; None when
    there is none.
    """
    flat = indices.indices()
    for bs in product(*(admissible_b(r) for r in flat)):
        basket = Basket.from_points(
            BasketPoint(b, r) for b, r in zip(bs, flat)
        )
        if all(l_value(basket, m).denominator == 1 for m in range(2, depth + 1)):
            return basket
    return None


def brute_force_integral(indices, depth=2):
    return brute_force_witness(indices, depth) is not None


# Reference l(2) DP over one wide modulus: the reachable numerators of l(2),
# as a set over a common multiple of every 2r, with a greedy witness rebuild.


@lru_cache(maxsize=None)
def wide_steps(r, mod):
    """The distinct l(2) terms b(r - b)/(2r) of index r, as numerators over mod."""
    return tuple({b * (r - b) % (2 * r) * (mod // (2 * r)) for b in admissible_b(r)})


def wide_add_point(reach, mod, r):
    return {(a + c) % mod for a in reach for c in wide_steps(r, mod)}


def wide_witness(indices):
    """(ok, lexicographically smallest witness) by the set DP modulo 2 r_X."""
    mod = 2 * cartier_index(indices)
    suffix = [{0}]
    for r, mult in reversed(indices.groups):
        reach = suffix[-1]
        for _ in range(mult):
            reach = wide_add_point(reach, mod, r)
        suffix.append(reach)
    suffix.reverse()
    if 0 not in suffix[0]:
        return False, None
    chosen, prefix = [], 0
    for (r, mult), rest in zip(indices.groups, suffix[1:]):
        for combo in combinations_with_replacement(admissible_b(r), mult):
            total = prefix + sum(b * (r - b) % (2 * r) * (mod // (2 * r)) for b in combo)
            if -total % mod in rest:
                prefix = total
                chosen.extend(BasketPoint(b, r) for b in combo)
                break
    return True, Basket.from_points(chosen)


def wide_reachability(max_weight):
    """{index tuple: is l(2) = 0 reachable} for every multiset of weight <= max_weight.

    A walk of its own over non-decreasing index tuples, with the set DP modulo
    2 * lcm(1..rmax) carried down each branch.
    """
    rmax = max_index(max_weight)
    mod = 2 * lcm(*range(1, rmax + 1))
    # weights r - 1/r in units of 2 / (mod * denominator), as integers
    weights = {r: (r * r - 1) * (mod // (2 * r)) * max_weight.denominator for r in range(2, rmax + 1)}
    found = {}
    stack = [((), 2, max_weight.numerator * mod // 2, {0})]
    while stack:
        prefix, rmin, budget, reach = stack.pop()
        for r in range(rmin, rmax + 1):
            if weights[r] > budget:
                break
            node, node_reach = prefix + (r,), wide_add_point(reach, mod, r)
            found[node] = 0 in node_reach
            stack.append((node, r, budget - weights[r], node_reach))
    return found


class TestPrunedVsOracle:
    @pytest.mark.parametrize("budget", [Fraction(3, 2), 4, 8, Fraction(17, 2), 10])
    def test_matches_naive_generation(self, budget):
        pruned = {rec.indices() for rec in feasible_index_multisets(budget)}
        assert pruned == naive_multisets(budget)

    def test_below_minimum_weight_is_empty(self):
        assert feasible_index_multisets(Fraction(1)) == []
        assert feasible_index_multisets(Fraction(0)) == []

    def test_canonical_order(self):
        out = feasible_index_multisets(Fraction(8))
        keys = [(m.weight, m.indices()) for m in out]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_canonical_order_breaks_weight_ties_lexicographically(self):
        out = feasible_index_multisets(Fraction(24))
        keys = [(m.weight, m.indices()) for m in out]
        assert len({w for w, _ in keys}) < len(keys) - 700  # many equal weights
        assert keys == sorted(keys)


class TestExistsIntegralBasket:
    def test_seven_cubed_witness(self):
        ok, witness = exists_integral_basket(parse_index_multiset("7^3"))
        assert ok
        assert witness == parse_basket("(1,7),(2,7),(3,7)")

    def test_seven_cubed_witness_is_lex_minimal(self):
        # exhaustive check over the ten sorted b-multisets
        hits = []
        for bs in combinations_with_replacement([1, 2, 3], 3):
            basket = Basket.from_points(BasketPoint(b, 7) for b in bs)
            if l_value(basket, 2).denominator == 1:
                hits.append(bs)
        assert hits == [(1, 2, 3)]

    def test_single_half_point_fails(self):
        ok, witness = exists_integral_basket(parse_index_multiset("2"))
        assert not ok and witness is None

    def test_extremal_multiset_fails(self):
        ok, witness = exists_integral_basket(parse_index_multiset("2^3,4,7,9"))
        assert not ok and witness is None
        assert not brute_force_integral(parse_index_multiset("2^3,4,7,9"))

    def test_run_choices_are_drawn_on_demand(self, monkeypatch):
        # the greedy rebuild of 13^30 accepts its run's 6th b-multiset, of
        # 324,632; each is drawn once, and a second rebuild draws none
        drawn = []

        def counting(*args):
            for combo in combinations_with_replacement(*args):
                drawn.append(combo)
                yield combo

        monkeypatch.setattr(enumeration, "combinations_with_replacement", counting)
        enumeration._run_choices.cache_clear()
        try:
            for _ in range(2):
                ok, witness = exists_integral_basket(parse_index_multiset("13^30"))
                assert ok and witness == parse_basket("(1,13)^29,(6,13)")
                assert len(drawn) == 6
        finally:
            enumeration._run_choices.cache_clear()

    def test_empty_multiset_has_empty_witness(self):
        ok, witness = exists_integral_basket(IndexMultiset())
        assert ok and witness == Basket()

    def test_agrees_with_brute_force_on_small_multisets(self):
        small = [m for m in feasible_index_multisets(Fraction(12)) if m.size <= 5]
        assert len(small) > 50
        for indices in small:
            ok, witness = exists_integral_basket(indices)
            assert ok == brute_force_integral(indices), indices
            if ok:
                assert witness.index_multiset() == indices
                assert l_value(witness, 2).denominator == 1

    def test_depth_three_agrees_with_brute_force_on_fixture(self):
        for row in tables.table_rows(2):
            ok, witness = exists_integral_basket(row.indices)
            assert ok == brute_force_integral(row.indices, depth=3), row
            if ok:
                assert l_value(witness, 2).denominator == 1
                assert l_value(witness, 3).denominator == 1

    def test_agrees_with_brute_force_at_every_depth(self):
        # l(m) = (1^2 + ... + (m-1)^2) * l(2) (mod 1): deeper levels add no
        # condition, and the DP's witness is brute force's first hit.  Every
        # chi = 1 multiset with at most 8 points; 2^3,4,8^2, 2^3,5^2,10,
        # 2^2,3^2,4,12 and 5^5 each have two witnesses.
        small = [m for m in feasible_index_multisets(Fraction(24)) if m.size <= 8]
        integral = 0
        for indices in small:
            ok, witness = exists_integral_basket(indices)
            assert ok == (witness is not None)
            integral += ok
            for depth in range(2, 7):
                assert brute_force_witness(indices, depth) == witness, (indices, depth)
        assert len(small) == 1925 and integral == 28


class TestAgainstWideModulusDP:
    @pytest.mark.parametrize("chi0, integral", [(1, 40), (2, 1399)])
    def test_walk_reachability_and_witnesses(self, chi0, integral):
        # every chi <= 2 node: the per-prime walk decides l(2) as the wide set
        # DP does, and every integral node's witness is the wide DP's witness
        raw, _ = _enumerate_raw(Fraction(24 * chi0), ALL, jobs=1)
        walked = {IndexMultiset(head + (last,)).indices(): witness for head, last, *_, witness in raw}
        reference = wide_reachability(Fraction(24 * chi0))
        assert {node: w is not None for node, w in walked.items()} == reference
        hits = [(node, w) for node, w in walked.items() if w is not None]
        assert len(hits) == integral
        for node, runs in hits:
            witness = enumeration._basket(runs)
            assert enumeration._runs(witness) == runs, node  # canonical runs
            assert wide_witness(IndexMultiset.from_indices(node)) == (True, witness), node

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_exists_integral_basket_matches_wide_dp(self, data):
        # indices up to 72, the chi = 3 ceiling, under the chi = 3 budget
        # (which keeps the wide DP's sets small): the 2-component then runs
        # modulo 128 and r_X can pass 10^6
        indices, budget = [], Fraction(72)
        for _ in range(data.draw(st.integers(0, 8))):
            if max_index(budget) < 2:
                break
            r = data.draw(st.integers(2, max_index(budget)))
            indices.append(r)
            budget -= Fraction(r * r - 1, r)
        multiset = IndexMultiset.from_indices(indices)
        assert exists_integral_basket(multiset) == wide_witness(multiset)

    @pytest.mark.parametrize("text", ["64^3", "2^3,4,8^2", "5^5", "9^2,27", "7^3,49", "8,16,32,64"])
    def test_prime_power_runs_match_wide_dp(self, text):
        multiset = parse_index_multiset(text)
        assert exists_integral_basket(multiset) == wide_witness(multiset)


class TestRotationMemo:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rotation_matches_the_shift_formula(self, data):
        # rotation[mask] is the union of mask's left rotations by the parts of
        # index r, on the first lookup (which computes it) and on a repeat
        rmax = data.draw(st.integers(2, 72))
        r = data.draw(st.integers(2, rmax))
        slots, parts = enumeration._l2_parts(r, rmax)
        rotations = enumeration._l2_rotations(r, rmax)
        assert [slot for slot, _ in rotations] == [slot for slot, _ in slots]
        for i, ((_, n), (_, rotation)) in enumerate(zip(slots, rotations)):
            mask = data.draw(st.integers(0, (1 << n) - 1))
            expected = 0
            for _, part in parts:
                expected |= (mask << part[i] | mask >> (n - part[i])) & ((1 << n) - 1)
            rotation.pop(mask, None)
            assert rotation[mask] == expected
            assert mask in rotation and rotation[mask] == expected


def test_tasks_share_no_walk_state():
    # each task's l(2) masks are its own, each walked subtree gets a copy of
    # its node's, and the shared rotation memos and the l(2) walk's cuts hold no walk state,
    # so a task's chunk does not depend on which tasks ran before it.  At
    # chi = 2, l2-integral keeps exactly the nodes whose masks all reach 0.
    # The range's l(2) walk, at the same budget, keeps only the rows at or
    # above its floor, and stores each walked subtree with its room above
    # the floor, so the l2-integral walk can replay what it stored.
    ranged = enumeration._tasks(Fraction(48), c1c2_in_range(10, Fraction(25, 2)))
    chi2 = enumeration._tasks(Fraction(48), INTEGRAL_L2)
    chi1 = enumeration._tasks(Fraction(24), ALL)
    low = enumeration._tasks(Fraction(37, 3), ALL)

    def clear_memos():
        for memo in (enumeration._frame, enumeration._l2_rotations,
                     enumeration._needs, enumeration._walked):
            memo.cache_clear()

    clear_memos()
    fresh = {task: enumeration._run_task(task) for task in ranged + chi2 + chi1 + low}
    assert sum(len(fresh[task]) for task in chi2) == 1399
    assert sum(len(witnessed(fresh[task])) for task in ranged) == 126
    for task in reversed(chi2):
        assert enumeration._run_task(task) == fresh[task], task
    for task in ranged:
        assert enumeration._run_task(task) == fresh[task], task
    clear_memos()
    for task in reversed(chi2):
        assert enumeration._run_task(task) == fresh[task], task
    for pair in zip_longest(chi1, low):
        for task in filter(None, pair):
            assert enumeration._run_task(task) == fresh[task], task


@pytest.fixture
def restore_gc():
    collecting = gc.isenabled()
    yield
    if collecting:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    def test_paused_during_the_build_and_restored(self, monkeypatch, restore_gc):
        seen = []
        real = enumeration._witness_runs

        def recording(groups, rmax):
            seen.append(gc.isenabled())
            return real(groups, rmax)

        monkeypatch.setattr(enumeration, "_witness_runs", recording)
        gc.enable()
        enumerate_index_multisets(EnumerationQuery(chi0=1, filter=INTEGRAL_L2))
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_restored_after_an_error(self, monkeypatch, restore_gc):
        monkeypatch.setattr(enumeration, "_witness_runs", lambda groups, rmax: None)
        gc.enable()
        with pytest.raises(RuntimeError):
            enumerate_index_multisets(EnumerationQuery(chi0=1, filter=INTEGRAL_L2))
        assert gc.isenabled()

    def test_left_off_when_the_caller_had_paused_it(self, restore_gc):
        gc.disable()
        enumerate_index_multisets(EnumerationQuery(chi0=1))
        assert not gc.isenabled()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_build_leaves_no_reference_cycle(self, jobs, restore_gc):
        # nothing the build allocates waits for the collector
        gc.disable()
        gc.collect()
        records = enumerate_index_multisets(EnumerationQuery(chi0=1), jobs=jobs)
        assert gc.collect() == 0
        assert len(records) == 2151


    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_leave_no_reference_cycle(self, jobs, restore_gc):
        gc.disable()
        gc.collect()
        lines = checked_lines(EnumerationQuery(chi0=1), cli.RENDERERS["csv"], jobs=jobs)
        assert gc.collect() == 0
        assert len(lines) == 2151


class TestEnumerate:
    def test_chi_zero_include_empty(self):
        records = enumerate_index_multisets(
            EnumerationQuery(chi0=0, include_empty=True)
        )
        assert len(records) == 1
        assert records[0].indices == IndexMultiset()
        assert records[0].c1c2 == 0
        assert records[0].cartier_index == 1
        assert records[0].has_integral_basket and records[0].witness == Basket()

    @pytest.mark.parametrize("chi0", [0, 1])
    @pytest.mark.parametrize(
        "flt",
        EVERY_FILTER_KIND,
        ids=lambda f: f.kind if f.lo is None else f"{f.kind}-{f.lo}-{f.hi}",
    )
    def test_include_empty_is_the_walks_root(self, flt, chi0):
        without = enumerate_index_multisets(EnumerationQuery(chi0=chi0, filter=flt))
        records = enumerate_index_multisets(
            EnumerationQuery(chi0=chi0, filter=flt, include_empty=True)
        )
        empty = ChernRecord(IndexMultiset(), chi0, Fraction(24 * chi0), 1, Basket())
        if empty_multiset_passes(flt, chi0):
            assert records == [empty] + without
        else:
            assert records == without

    def test_walk_and_witness_rebuild_must_agree(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_witness_runs", lambda groups, rmax: None)
        with pytest.raises(RuntimeError):
            enumerate_index_multisets(EnumerationQuery(chi0=1, filter=INTEGRAL_L2))

    def test_chi_zero_without_empty(self):
        assert enumerate_index_multisets(EnumerationQuery(chi0=0)) == []

    def test_zero_filter_gives_eleven(self):
        records = enumerate_index_multisets(EnumerationQuery(chi0=1, filter=C1C2_ZERO))
        assert len(records) == 11
        produced = {rec.indices for rec in records}
        for text in ("5^5", "2^3,4,8^2", "2^16"):
            assert parse_index_multiset(text) in produced
        assert all(rec.c1c2 == 0 for rec in records)

    def test_integral_filter_gives_forty(self):
        records = enumerate_index_multisets(EnumerationQuery(chi0=1, filter=INTEGRAL_L2))
        assert len(records) == 40
        assert all(rec.has_integral_basket for rec in records)

    def test_filter_is_subset_of_all(self):
        every = {r.indices for r in enumerate_index_multisets(EnumerationQuery(chi0=1))}
        integral = {
            r.indices
            for r in enumerate_index_multisets(EnumerationQuery(chi0=1, filter=INTEGRAL_L2))
        }
        zero = {
            r.indices
            for r in enumerate_index_multisets(EnumerationQuery(chi0=1, filter=C1C2_ZERO))
        }
        assert integral <= every
        assert zero <= every

    def test_range_filter(self):
        records = enumerate_index_multisets(
            EnumerationQuery(
                chi0=1, filter=c1c2_in_range(Fraction(0), Fraction(1, 2))
            )
        )
        assert all(0 <= rec.c1c2 <= Fraction(1, 2) for rec in records)
        produced = {rec.indices for rec in records}
        assert parse_index_multiset("2^3,4,7,9") in produced  # c1c2 = 1/252
        assert parse_index_multiset("2^16") in produced  # c1c2 = 0
        every = enumerate_index_multisets(EnumerationQuery(chi0=1))
        expected = {r.indices for r in every if 0 <= r.c1c2 <= Fraction(1, 2)}
        assert produced == expected

    def test_index_ceiling(self):
        records = enumerate_index_multisets(EnumerationQuery(chi0=1))
        top = max(r for rec in records for r, _ in rec.indices.groups)
        assert top == 24

    def test_index_ceiling_scales_with_chi(self):
        from chern3.enumeration import max_index

        assert max_index(Fraction(24)) == 24
        assert max_index(Fraction(48)) == 48
        assert max_index(Fraction(1)) == 1  # nothing fits below weight 3/2

    def test_jobs_do_not_change_records(self):
        serial = enumerate_index_multisets(EnumerationQuery(chi0=1))
        parallel = enumerate_index_multisets(EnumerationQuery(chi0=1), jobs=3)
        assert serial == parallel

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_jobs_under_fresh_import_start_methods(self, monkeypatch, method):
        # macOS starts pool workers with spawn and Python 3.14 on Linux with
        # forkserver: the workers import the package afresh
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        serial = enumerate_index_multisets(EnumerationQuery(chi0=1))
        monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context(method).Pool)
        assert enumerate_index_multisets(EnumerationQuery(chi0=1), jobs=2) == serial

    def test_root_task_in_a_pool(self):
        # the empty multiset is the first task; a pool returns its row first too
        query = EnumerationQuery(chi0=1, include_empty=True)
        serial = enumerate_index_multisets(query)
        assert serial[0].indices == IndexMultiset() and len(serial) == 2152
        assert enumerate_index_multisets(query, jobs=2) == serial
        lines = checked_lines(query, cli._render_csv)
        assert lines[0] == "∅,1,24,true,∅" and len(lines) == 2152
        assert checked_lines(query, cli._render_csv, jobs=2) == lines

    @pytest.mark.parametrize(
        "max_weight, tied", [(Fraction(24), 375), (Fraction(37, 3), 8), (Fraction(48), 29300)]
    )
    def test_chunks_join_in_order_among_equal_rems(self, monkeypatch, max_weight, tied):
        # the tasks run last first, and their chunks are joined in task
        # order; the stable sort on rem keeps the joined chunks' order among
        # rows of equal rem, so there it must be lexicographic on the
        # expanded index sequence; tied counts the rems that more than one
        # row has.  Only the tasks' chunks are recorded, not the l(2) walks
        # they join
        chunks = []
        real = enumeration._run_task

        def recording(task):
            chunks.append((task, real(task)))
            return chunks[-1][1]

        monkeypatch.setattr(enumeration, "_run_task", recording)
        raw, _ = _enumerate_raw(max_weight, ALL, jobs=1)
        tasks = enumeration._tasks(max_weight, ALL)
        assert [task for task, _ in chunks] == tasks[::-1]
        by_task = dict(chunks)
        by_rem = {}
        for task in tasks:
            for head, last, rem, *_ in by_task[task]:
                by_rem.setdefault(rem, []).append(IndexMultiset(head + (last,)).indices())
        assert sum(map(len, by_rem.values())) == len(raw)
        ties = [joined for joined in by_rem.values() if len(joined) > 1]
        assert len(ties) == tied
        for joined in ties:
            assert joined == sorted(set(joined))

    def test_every_emitted_witness_reverifies(self):
        records = enumerate_index_multisets(EnumerationQuery(chi0=1, filter=INTEGRAL_L2))
        for rec in records:
            assert rec.witness is not None
            assert rec.witness.index_multiset() == rec.indices
            assert l_value(rec.witness, 2).denominator == 1

    def test_records_are_consistent(self):
        for rec in enumerate_index_multisets(EnumerationQuery(chi0=1)):
            assert rec.c1c2 == c1c2_from_indices(rec.indices, 1)
            assert rec.c1c2 >= 0
            assert rec.cartier_index == cartier_index(rec.indices)

    def test_c1c2_filter_runs_before_integrality(self, monkeypatch):
        decided = []
        real = enumeration._witness_runs

        def recording(groups, rmax):
            decided.append(IndexMultiset(groups))
            return real(groups, rmax)

        monkeypatch.setattr(enumeration, "_witness_runs", recording)
        records = enumerate_index_multisets(EnumerationQuery(chi0=1, filter=C1C2_ZERO))
        assert decided
        assert set(decided) <= {rec.indices for rec in records}

    @pytest.mark.parametrize("chi0", [1, 2])
    @pytest.mark.parametrize(
        "flt", EVERY_FILTER_KIND, ids=lambda f: f.kind if f.lo is None else f"{f.kind}-{f.lo}-{f.hi}"
    )
    def test_walk_hands_over_only_integral_multisets(self, monkeypatch, flt, chi0):
        # the walk runs the same l(2) DP as the witness rebuild, so every
        # multiset it hands over has an integral basket; the rebuild has one
        # site, before either hand-off, so each kept row is rebuilt once
        outcomes = []
        real = enumeration._witness_runs

        def recording(groups, rmax):
            runs = real(groups, rmax)
            outcomes.append((groups, runs is not None))
            return runs

        monkeypatch.setattr(enumeration, "_witness_runs", recording)
        if chi0 == 1:
            records = enumerate_index_multisets(EnumerationQuery(chi0=1, filter=flt))
            kept = [rec.indices.groups for rec in records if rec.has_integral_basket]
        else:  # the χ = 2 rows, without their records
            raw, _ = _enumerate_raw(Fraction(48), flt, jobs=1)
            kept = [head + (last,) for head, last, *_, witness in raw if witness is not None]
        assert all(ok for _, ok in outcomes)
        assert len(set(kept)) == len(kept)
        assert sorted(groups for groups, _ in outcomes) == sorted(kept)
        if flt.kind in ("all", "l2-integral"):
            assert len(kept) == {1: 40, 2: 1399}[chi0]

    @pytest.mark.parametrize("flt", [INTEGRAL_L2, ALL], ids=["l2-integral", "all"])
    def test_a_rebuilt_witness_of_another_multiset_raises(self, monkeypatch, flt):
        # both hand-offs take the witness from the one rebuild site, and the
        # record rules check it against the row's own runs
        real = enumeration._witness

        def other(runs, rmax):
            return real(((3, 3),) if runs == ((2, 4),) else ((2, 4),), rmax)

        monkeypatch.setattr(enumeration, "_witness", other)
        with pytest.raises(ValueError, match="witness does not project onto the index multiset"):
            checked_lines(EnumerationQuery(chi0=1, filter=flt), cli.RENDERERS["csv"])

    @pytest.mark.parametrize("chi0", [0, 1])
    def test_walk_carries_cartier_index(self, chi0):
        raw, _ = _enumerate_raw(Fraction(24 * chi0), ALL, jobs=1)
        for head, last, _, lcm, _ in raw:
            assert lcm == cartier_index(IndexMultiset(head + (last,)))
        records = enumerate_index_multisets(
            EnumerationQuery(chi0=chi0, include_empty=True)
        )
        assert len(records) == len(raw) + 1
        for rec in records:
            assert rec.cartier_index == cartier_index(rec.indices)

    @pytest.mark.parametrize("chi0", [0, 1])
    def test_walk_emits_canonical_groups(self, chi0):
        # a row's head and its runs head + (last,) are canonical runs, kept as
        # they are, so records reuse the tuples built from the walk's items
        raw, _ = _enumerate_raw(Fraction(24 * chi0), ALL, jobs=1)
        for head, last, *_ in raw:
            groups = head + (last,)
            assert IndexMultiset(head).groups is head
            assert IndexMultiset(groups).groups is groups


def walked_node(frame):
    """The expanded index sequence of the node whose window test is in frame.

    It is a node of the weights walk (`_weigh`) or of the l(2) walk
    (`_scan`), or the root, which `_run_task` tests.
    """
    names = frame.f_locals
    if frame.f_code.co_name in ("_weigh", "_scan"):
        return IndexMultiset(names["prefix"]).indices() + (names["r"],)
    assert frame.f_code.co_name == "_run_task"
    return ()


WALK_FRAMES = ("_weigh", "_scan")


class RecordingStop:
    """A window's stop that records the node and c1c2 of each rem a walk tests against it.

    A walk tests a node's rem as rem < window.stop, which for an int rem
    falls to this bound's reflected `__gt__`; only the tests made in a
    walk's own frame are a node's, and are recorded.
    """

    def __init__(self, stop, record):
        self.stop, self.record = stop, record

    def __gt__(self, rem):
        frame = sys._getframe(1)
        if frame.f_code.co_name in WALK_FRAMES:
            self.record(frame, rem)
        return rem < self.stop


class RecordingFloor(int):
    """A window's floor that records the node and c1c2 of each rem the l(2) walk passes it with.

    The l(2) walk tests a node's rem as rem < floor, which for an int rem
    falls first to this subclass's reflected `__gt__`; only a test made in
    `_scan`'s own frame that the rem passes is a node's, and is recorded.
    """

    def __new__(cls, floor, record):
        self = super().__new__(cls, floor)
        self.record = record
        return self

    def __gt__(self, rem):
        below = rem < int(self)
        frame = sys._getframe(1)
        if not below and frame.f_code.co_name == "_scan":
            self.record(frame, rem)
        return below


class RecordingWindow:
    """A filter's window that records the node and c1c2 of each rem tested against it.

    The weights walk tests its stop (`RecordingStop`), the l2-integral
    filter's own walk, the l(2) walk, its floor (`RecordingFloor`), and
    `_run_task` tests the root's rem for membership.  The l(2) walk that
    another filter's weights walk joins is not that filter's walk, so its
    floor records nothing.
    """

    def __init__(self, window, scale, nodes, values, floor=False):
        self.window, self.scale = window, scale
        self.start = RecordingFloor(window.start, self.record) if floor else window.start
        self.stop = RecordingStop(window.stop, self.record)
        self.nodes, self.values = nodes, values

    def record(self, frame, rem):
        self.nodes.append(walked_node(frame))
        self.values.append(Fraction(rem, self.scale))

    def __contains__(self, rem):
        self.record(sys._getframe(1), rem)
        return rem in self.window


def record_windows(monkeypatch, nodes, values):
    """Make every filter's window a `RecordingWindow` appending to nodes and values."""
    real = RecordFilter.window

    def window(self, scale, budget):
        return RecordingWindow(
            real(self, scale, budget), scale, nodes, values, self.kind == "l2-integral")

    monkeypatch.setattr(RecordFilter, "window", window)


class TestFilterOncePerNode:
    # the χ = 1 walk has 2,151 nodes below its root, the empty multiset; the
    # l2-integral and c1c2-range walks skip nodes that keep no row, so their
    # counts are pinned at --jobs 1 with the walked-subtree memo cleared.  In
    # the windows [23, 24] and [24, 48] every node lies below the floor; the
    # window [-1, -1/3] holds no rem, and its walk keeps no row.  Only the
    # filter's own walk is recorded: the l(2) walk that every other
    # filter's weights walk joins tests the same floor, unrecorded.
    FILTERS = EVERY_FILTER_KIND + [c1c2_in_range(-1, Fraction(-1, 3))]
    WALKED = dict(zip(FILTERS, [2151, 2151, 434, 2151, 0, 0, 2151]))

    @pytest.mark.parametrize("include_empty", [False, True], ids=["", "include-empty"])
    @pytest.mark.parametrize(
        "flt",
        FILTERS,
        ids=lambda f: f.kind if f.lo is None else f"{f.kind}-{f.lo}-{f.hi}",
    )
    def test_every_node_meets_the_filter_once(self, monkeypatch, flt, include_empty):
        nodes, values = [], []
        # a replayed row is no walked node, so the l2-integral records are
        # held to the mask walk's integral items instead, as in TestCuts
        integral = [()] * include_empty + [
            head + (last,) for head, last, *_ in integral_items(Fraction(24))
        ]
        enumeration._walked.cache_clear()
        record_windows(monkeypatch, nodes, values)
        query = EnumerationQuery(chi0=1, filter=flt, include_empty=include_empty)
        records = enumerate_index_multisets(query)
        assert len(set(nodes)) == len(nodes)
        if flt.kind == "l2-integral":
            assert [rec.indices.groups for rec in records] == integral
        else:
            assert {rec.indices.indices() for rec in records} <= set(nodes)
        assert len(nodes) == self.WALKED[flt] + include_empty
        if flt.kind == "c1c2-range":
            assert all(value >= max(0, flt.lo) for value in values)  # none below the floor
            if flt.hi < 0:
                assert records == []

    def test_chi2_integral_walk(self, monkeypatch):
        # 14,647 of the 216,683 nodes, against 1,399 kept, and 1,936 subtrees
        # walked and stored (`_suffixes`) for 1,238 memo keys; with the
        # tasks run in task order, not last first, they are 21,711 and 3,097
        nodes, stored, memo = [], [], {}
        real = enumeration._suffixes

        def suffixes(rows, *node):
            stored.append(node)
            return real(rows, *node)

        record_windows(monkeypatch, nodes, [])
        monkeypatch.setattr(enumeration, "_suffixes", suffixes)
        monkeypatch.setattr(enumeration, "_walked", lru_cache(maxsize=None)(lambda _: memo))
        raw, _ = _enumerate_raw(Fraction(48), INTEGRAL_L2, jobs=1)
        assert len(raw) == 1399
        assert len(nodes) == len(set(nodes)) == 14647
        assert (len(stored), len(memo)) == (1936, 1238)

    @pytest.mark.parametrize(
        "lo, hi, tested",
        [(Fraction(1, 2), 3, (1914, 380)), (4, 24, (834, 229)), (23, 24, (0, 0))],
        ids=["1/2-3", "4-24", "23-24"],
    )
    def test_no_walk_of_a_range_tests_a_node_below_its_floor(self, monkeypatch, lo, hi, tested):
        # the weights walk tests the filter's window, and the l(2) walk it
        # joins tests the window's floor, which each `_scan` call's ctx gets
        # recorded in; tested pins both counts, as the l(2) walk's sibling
        # loops end and its subtrees are cut against the room above the floor
        every = enumerate_index_multisets(EnumerationQuery(chi0=1))
        scale = enumeration._frame(Fraction(24))[1]
        weighed, scanned = [], []
        record_windows(monkeypatch, [], weighed)
        real = enumeration._scan

        def record(frame, rem):
            scanned.append(Fraction(rem, scale))

        def scan(ctx, *args):
            if not isinstance(ctx[4], RecordingFloor):
                ctx = (*ctx[:4], RecordingFloor(ctx[4], record), *ctx[5:])
            real(ctx, *args)

        monkeypatch.setattr(enumeration, "_scan", scan)
        enumeration._walked.cache_clear()
        records = enumerate_index_multisets(EnumerationQuery(chi0=1, filter=c1c2_in_range(lo, hi)))
        assert all(value >= lo for value in weighed + scanned)
        assert (len(weighed), len(scanned)) == tested
        assert records == [rec for rec in every if lo <= rec.c1c2 <= hi]


@lru_cache(maxsize=None)
def integral_items(max_weight):
    """The integral items (head, last, rem, lcm, witness) within max_weight, in canonical order.

    The reference for the library's walks: a walk of its own over every
    non-empty multiset, with no cut, memo or join, that carries each node's
    per-prime l(2) masks, stepped by the library's rotation memos
    (`TestRotationMemo` holds them to the shift formula), so a node has a
    basket with integral l(2) iff every mask holds 0.  Each such node's
    witness is rebuilt by `_witness_runs`; the items are sorted by rem
    descending, then by the expanded index sequence.
    """
    rmax, _, budget, weights, rotations, _ = enumeration._frame(max_weight)
    found = []

    def visit(groups, rmin, rem, r_x, masks):
        for r in range(rmin, rmax + 1):
            node_rem = rem - weights[r]
            if node_rem < 0:
                break
            node_masks = masks[:]
            for slot, rotation in rotations[r]:
                node_masks[slot] = rotation[node_masks[slot]]
            if groups and groups[-1][0] == r:
                node = groups[:-1] + ((r, groups[-1][1] + 1),)
            else:
                node = groups + ((r, 1),)
            node_r_x = lcm(r_x, r)
            if all(mask & 1 for mask in node_masks):
                witness = enumeration._witness_runs(node, rmax)
                found.append((node[:-1], node[-1], node_rem, node_r_x, witness))
            visit(node, r, node_rem, node_r_x, node_masks)

    visit((), 2, budget, 1, [1] * len(enumeration._prime_moduli(rmax)))
    found.sort(key=lambda item: (-item[2], IndexMultiset(item[0] + (item[1],)).indices()))
    return found


def witnessed(items):
    """The items that have a witness, in their order."""
    return [item for item in items if item[4] is not None]


def brute_masks(movers, start, budget, weights, rmax):
    """{mask: least weight} over the multisets of movers within budget, from start.

    movers lists (r, i): index r moves the slot, whose part i of each b it
    adds; masks are rotated by the shift formula, not the walk's memos.
    """
    least = {}

    def extend(mask, spent, first):
        if least.get(mask, spent + 1) > spent:
            least[mask] = spent
        for j in range(first, len(movers)):
            r, i = movers[j]
            if spent + weights[r] > budget:
                break
            slots, parts = enumeration._l2_parts(r, rmax)
            n = slots[i][1]
            moved = 0
            for _, part in parts:
                moved |= (mask << part[i] | mask >> (n - part[i])) & ((1 << n) - 1)
            extend(moved, spent + weights[r], j)

    extend(start, 0, 0)
    return least


# rational budgets in [0, 48] with denominators up to 12
RATIONAL_BUDGETS = st.integers(1, 12).flatmap(
    lambda den: st.builds(Fraction, st.integers(0, 48 * den), st.just(den))
)


class TestCuts:
    """The l(2) walk's cuts skip only subtrees that keep no row, and the weights walk joins its rows.

    Both are held to the mask walk over every node (`integral_items`).
    """

    @pytest.mark.parametrize("chi0", [0, 1, 2])
    def test_integral_walk_keeps_the_full_walks_integral_items(self, chi0):
        enumeration._walked.cache_clear()
        raw, _ = _enumerate_raw(Fraction(24 * chi0), INTEGRAL_L2, jobs=1)
        assert raw == integral_items(Fraction(24 * chi0))
        assert len(raw) == [0, 40, 1399][chi0]
        joined, _ = _enumerate_raw(Fraction(24 * chi0), ALL, jobs=1)
        assert witnessed(joined) == raw

    @settings(max_examples=12, deadline=None)
    @given(RATIONAL_BUDGETS)
    @example(Fraction(47))
    @example(Fraction(95, 2))
    @example(Fraction(143, 3))
    def test_rational_budgets(self, budget):
        # each budget's walk fills its own memo and frees it as it ends; the
        # range's l(2) walk cuts against the room above its floor
        expected = integral_items(budget)
        raw, scale = _enumerate_raw(budget, INTEGRAL_L2, jobs=1)
        assert raw == expected
        assert witnessed(_enumerate_raw(budget, ALL, jobs=1)[0]) == expected
        lo = budget / 3
        ranged, _ = _enumerate_raw(budget, c1c2_in_range(lo, budget), jobs=1)
        assert witnessed(ranged) == [item for item in expected if item[2] >= lo * scale]

    def test_walks_free_their_memo(self, monkeypatch):
        # the memo lives while its walk runs and is empty once the walk ends,
        # also when the walk fails
        query = EnumerationQuery(chi0=1, filter=INTEGRAL_L2)
        sizes = []
        real = enumeration._run_task

        def recording(task):
            items = real(task)
            sizes.append(len(enumeration._walked(task[0])))
            return items

        monkeypatch.setattr(enumeration, "_run_task", recording)
        enumerate_index_multisets(query)
        assert max(sizes) > 0 and enumeration._walked.cache_info().currsize == 0
        sizes.clear()
        checked_lines(query, cli.RENDERERS["csv"])
        assert max(sizes) > 0 and enumeration._walked.cache_info().currsize == 0
        monkeypatch.setattr(enumeration, "_witness_runs", lambda groups, rmax: None)
        for walk in (enumerate_index_multisets, partial(checked_lines, render=cli._render_csv)):
            with pytest.raises(RuntimeError):
                walk(query)
            assert enumeration._walked.cache_info().currsize == 0

    @pytest.mark.parametrize("budget", [Fraction(9, 2), Fraction(10), Fraction(31, 2), Fraction(16)])
    def test_need_table_matches_brute_force(self, budget):
        # a node whose slot holds mask is cut iff need > its rem; rem can be
        # anything up to the budget left after the least weight reaching mask,
        # and there the table must agree with the least weight of the indices
        # >= r that move the slot and bring 0 into the mask
        rmax, _, full, weights, *_ = enumeration._frame(budget)
        needs = enumeration._needs(budget)
        assert len(needs) == len(enumeration._prime_moduli(rmax))
        # `_stop` bisects each slot's needs over r, which must not fall as r grows
        for slot, curves in enumerate(needs):
            for mask, curve in curves.items():
                assert len(curve) == rmax + 2
                assert list(curve) == sorted(curve), (slot, mask)
        for slot in range(len(enumeration._prime_moduli(rmax))):
            movers = []
            for r in range(2, rmax + 1):
                slots = [s for s, _ in enumeration._l2_parts(r, rmax)[0]]
                if slot in slots:
                    movers.append((r, slots.index(slot)))
            reached = brute_masks(movers, 1, full, weights, rmax)
            for r in range(rmax + 2):
                table = {mask: curve[r] for mask, curve in needs[slot].items()}
                assert set(table) == {mask for mask in reached if not mask & 1}
                later = [mover for mover in movers if mover[0] >= r]
                for mask, need in table.items():
                    slack = full - reached[mask]
                    exact = min(
                        (w for m, w in brute_masks(later, mask, slack, weights, rmax).items()
                         if m & 1),
                        default=None,
                    )
                    if exact is None:
                        assert need > slack, (slot, r, mask)
                    else:
                        assert need == exact, (slot, r, mask)

    def test_memo_replays_in_any_warm_order(self, monkeypatch):
        # a task's chunk is the same from a cold memo and from one that other
        # tasks warmed in any order, and the memo's stored rows are replayed
        budget = Fraction(48)
        expected = integral_items(budget)
        tasks = enumeration._tasks(budget, INTEGRAL_L2)
        shuffled = tasks[:]
        random.Random(1).shuffle(shuffled)
        replayed = []
        real = enumeration._replay

        def counting(out, *args):
            before = len(out)
            real(out, *args)
            replayed.append(len(out) - before)

        monkeypatch.setattr(enumeration, "_replay", counting)
        for warm in ([], tasks[::-1], shuffled):
            enumeration._walked.cache_clear()
            for task in warm:
                enumeration._run_task(task)
            replayed.clear()
            raw, _ = _enumerate_raw(budget, INTEGRAL_L2, jobs=1)
            assert raw == expected
            assert sum(replayed) > 0

    @staticmethod
    @lru_cache(maxsize=None)
    def chi1_items():
        return _enumerate_raw(Fraction(24), ALL, jobs=1)

    @staticmethod
    def in_range(items, scale, lo, hi):
        return [item for item in items if lo <= Fraction(item[2], scale) <= hi]

    @settings(max_examples=100, deadline=None)
    @given(
        lo=st.fractions(min_value=-1, max_value=25, max_denominator=60),
        width=st.fractions(min_value=0, max_value=25, max_denominator=60),
    )
    @example(lo=Fraction(0), width=Fraction(0))
    @example(lo=Fraction(24), width=Fraction(0))
    @example(lo=Fraction(1, 252), width=Fraction(0))
    def test_range_walk_matches_the_full_walk(self, lo, width):
        # the c1c2-range walk ends each run of siblings at the first rem below lo
        raw, scale = _enumerate_raw(Fraction(24), c1c2_in_range(lo, lo + width), jobs=1)
        items, _ = self.chi1_items()
        assert raw == self.in_range(items, scale, lo, lo + width)

    def test_chi2_range_walk_matches_the_full_walk(self):
        lo, hi = Fraction(10), Fraction(25, 2)
        raw, scale = _enumerate_raw(Fraction(48), c1c2_in_range(lo, hi), jobs=1)
        items, _ = _enumerate_raw(Fraction(48), ALL, jobs=1)
        assert raw == self.in_range(items, scale, lo, hi)
        assert len(raw) > 1000


class HoledStop:
    """A window's stop that a walk's node at one rem fails (`RecordingStop`)."""

    def __init__(self, stop, hole):
        self.stop, self.hole = stop, hole

    def __gt__(self, rem):
        if rem == self.hole and sys._getframe(1).f_code.co_name in WALK_FRAMES:
            return False
        return rem < self.stop


class HoledWindow:
    """A filter's window without one rem: the weights walk keeps no node there."""

    def __init__(self, window, hole):
        self.window, self.start, self.stop, self.hole = (
            window, window.start, HoledStop(window.stop, hole), hole)

    def __contains__(self, rem):
        return rem != self.hole and rem in self.window


class TestJoin:
    """Every l(2) row in the window must be met by the weights walk, by rem and runs."""

    def test_row_the_weights_walk_drops_raises(self, monkeypatch):
        # at χ = 1 the weights walk keeps no node at c1c2 = 0, among them
        # 2^3,4,8^2 and 5^5, whose l(2) rows are in the window
        real = RecordFilter.window
        monkeypatch.setattr(
            RecordFilter, "window", lambda self, scale, budget: HoledWindow(real(self, scale, budget), 0)
        )
        with pytest.raises(RuntimeError, match="never met a row of the l\\(2\\) walk"):
            _enumerate_raw(Fraction(24), ALL, jobs=1)
        assert enumeration._walked.cache_info().currsize == 0

    def test_row_with_another_rem_raises(self, monkeypatch):
        # the first l(2) row of each task that has one, one unit heavier in c1c2
        real = enumeration._l2_rows

        def shifted(*args):
            rows = real(*args)
            if rows:
                head, last, rem, r_x = rows[0]
                rows[0] = head, last, rem + 1, r_x
            return rows

        monkeypatch.setattr(enumeration, "_l2_rows", shifted)
        with pytest.raises(RuntimeError, match="never met a row of the l\\(2\\) walk"):
            _enumerate_raw(Fraction(24), ALL, jobs=1)
        assert enumeration._walked.cache_info().currsize == 0


@lru_cache(maxsize=None)
def reference_run_choices(r, mult, rmax):
    """(slots, choices) for a run of mult points of index r, every choice made up front.

    choices lists (runs, sums) for the b-multisets in lexicographic order,
    skipping any whose sums equal an earlier one's.
    """
    slots, parts = enumeration._l2_parts(r, rmax)
    part = dict(parts)
    choices, seen = [], set()
    for combo in combinations_with_replacement(part, mult):
        sums = tuple(sum(part[b][i] for b in combo) % n for i, (_, n) in enumerate(slots))
        if sums not in seen:
            seen.add(sums)
            choices.append((tuple(((r, b), len(list(same))) for b, same in groupby(combo)), sums))
    return slots, choices


def reference_witness_runs(groups, rmax):
    """The smallest witness runs over canonical index runs, or None: the rebuild as first written.

    Per-prime suffix masks, each run's rotation applied mult times in
    place, guide a greedy pass that takes each run's first b-choice whose
    sums keep every slot's -prefix reachable in the rest; the rotations
    are the library's memos (`TestRotationMemo` holds them to the shift
    formula), the choices this module's own.
    """
    suffix = [[1] * len(enumeration._prime_moduli(rmax))]
    for r, mult in reversed(groups):
        masks = suffix[-1][:]
        for slot, rotation in enumeration._l2_rotations(r, rmax):
            for _ in range(mult):
                masks[slot] = rotation[masks[slot]]
        suffix.append(masks)
    suffix.reverse()
    if not all(mask & 1 for mask in suffix[0]):
        return None
    runs = ()
    prefix = [0] * len(suffix[0])
    for (r, mult), rest in zip(groups, suffix[1:]):
        slots, choices = reference_run_choices(r, mult, rmax)
        for chosen, sums in choices:
            if all(rest[slot] >> (-prefix[slot] - s) % n & 1 for s, (slot, n) in zip(sums, slots)):
                for s, (slot, n) in zip(sums, slots):
                    prefix[slot] = (prefix[slot] + s) % n
                runs += chosen
                break
        else:
            raise AssertionError("reachability and reconstruction disagree")
    return runs


def assert_rebuilds_match_reference(raw, rmax):
    """Each raw item's witness is the reference rebuild's, and so is `_witness_runs`' own."""
    for head, last, *_, witness in raw:
        groups = head if last is None else head + (last,)
        expected = reference_witness_runs(groups, rmax)
        assert witness == expected, groups
        assert enumeration._witness_runs(groups, rmax) == expected, groups


class TestWitnessRebuildOracle:
    """`_witness_runs` equals the rebuild as first written (`reference_witness_runs`)."""

    @pytest.mark.parametrize("chi0", [0, 1, 2])
    def test_every_integral_row(self, chi0):
        rmax = max_index(Fraction(24 * chi0))
        raw, _ = _enumerate_raw(Fraction(24 * chi0), INTEGRAL_L2, jobs=1, include_empty=True)
        assert len(raw) == [1, 41, 1400][chi0]
        assert_rebuilds_match_reference(raw, rmax)

    def test_every_chi1_node(self):
        # the rows without integral l(2) too, where both give None
        rmax = max_index(Fraction(24))
        raw, _ = _enumerate_raw(Fraction(24), ALL, jobs=1)
        assert sum(witness is None for *_, witness in raw) == 2151 - 40
        assert_rebuilds_match_reference(raw, rmax)

    @settings(max_examples=12, deadline=None)
    @given(RATIONAL_BUDGETS)
    @example(Fraction(47))
    @example(Fraction(95, 2))
    @example(Fraction(143, 3))
    def test_rational_budgets(self, budget):
        raw, _ = _enumerate_raw(budget, INTEGRAL_L2, jobs=1)
        assert_rebuilds_match_reference(raw, max_index(budget))

    def test_chi3_rows(self):
        # every 7th of the 28,972 χ = 3 rows, from the walk's own rebuild
        raw, _ = _enumerate_raw(Fraction(72), INTEGRAL_L2, jobs=1)
        assert len(raw) == 28972
        assert_rebuilds_match_reference(raw[::7], 72)


class TestWitnessOverTheWalksRmax:
    @pytest.mark.parametrize(
        "chi0, flt, count",
        [(1, ALL, 2151), (2, INTEGRAL_L2, 1399)],
        ids=["chi1-all", "chi2-l2-integral"],
    )
    def test_same_witness_at_either_rmax(self, chi0, flt, count):
        # every χ = 1 node and every l2-reachable χ = 2 node, whose witnesses
        # the walk rebuilt over its own rmax; any rmax at least the largest
        # index gives the same witness
        rmax = max_index(Fraction(24 * chi0))
        raw, _ = _enumerate_raw(Fraction(24 * chi0), flt, jobs=1)
        assert len(raw) == count
        for head, last, _, _, witness in raw:
            groups = head + (last,)
            assert enumeration._witness_runs(groups, groups[-1][0]) == witness, groups
            assert enumeration._witness_runs(groups, rmax) == witness, groups
            found = (witness is not None, None if witness is None else enumeration._basket(witness))
            assert exists_integral_basket(IndexMultiset(groups)) == found, groups
        assert enumeration._witness_runs((), 1) == enumeration._witness_runs((), rmax) == ()
        assert exists_integral_basket(IndexMultiset()) == (True, Basket())

    def test_witness_rebuild_reads_the_walks_rotation_memos(self):
        enumeration._frame.cache_clear()
        enumeration._l2_rotations.cache_clear()
        chunks = [enumeration._run_task(task)
                  for task in enumeration._tasks(Fraction(48), INTEGRAL_L2)]
        assert sum(map(len, chunks)) == 1399
        # the walk's own step for each index 2..48 at rmax 48, and no other
        assert enumeration._l2_rotations.cache_info().currsize == 47


class TestQueryValidation:
    def test_rejects_chi_outside_domain(self):
        with pytest.raises(ValueError):
            EnumerationQuery(chi0=3)

    def test_exploration_flag_allows_it(self):
        EnumerationQuery(chi0=3, allow_any_chi=True)

    def test_rejects_negative_chi(self):
        with pytest.raises(ValueError):
            EnumerationQuery(chi0=-1, allow_any_chi=True)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError):
            enumerate_index_multisets(EnumerationQuery(chi0=1), jobs=jobs)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            c1c2_in_range(Fraction(2), Fraction(1))


class TestChernRecordValidation:
    def test_rejects_wrong_c1c2(self):
        indices = parse_index_multiset("2^16")
        with pytest.raises(ValueError):
            ChernRecord(
                indices=indices,
                chi0=1,
                c1c2=Fraction(1),
                cartier_index=2,
            )

    def test_rejects_negative_c1c2(self):
        indices = parse_index_multiset("2^16,3")
        with pytest.raises(ValueError):
            ChernRecord(
                indices=indices,
                chi0=1,
                c1c2=c1c2_from_indices(indices, 1),
                cartier_index=6,
            )

    def test_rejects_wrong_cartier_index(self):
        indices = parse_index_multiset("2^3,4,7,9")
        with pytest.raises(ValueError, match="Cartier index mismatch"):
            ChernRecord(
                indices=indices,
                chi0=1,
                c1c2=Fraction(1, 252),
                cartier_index=126,
            )

    @pytest.mark.parametrize("chi0", [0, 1, 2])
    def test_empty_multiset(self, chi0):
        rec = ChernRecord(
            indices=IndexMultiset(),
            chi0=chi0,
            c1c2=Fraction(24 * chi0),
            cartier_index=1,
            witness=Basket(),
        )
        assert rec.cartier_index == 1
        with pytest.raises(ValueError, match=f"stated {24 * chi0 + 1}, derived {24 * chi0}"):
            ChernRecord(
                indices=IndexMultiset(),
                chi0=chi0,
                c1c2=Fraction(24 * chi0 + 1),
                cartier_index=1,
                witness=Basket(),
            )

    def test_integrality_is_read_from_the_witness(self):
        indices = parse_index_multiset("2^16")
        without = ChernRecord(indices=indices, chi0=1, c1c2=Fraction(0), cartier_index=2)
        assert without.witness is None and not without.has_integral_basket
        empty = ChernRecord(IndexMultiset(), 1, Fraction(24), 1, witness=Basket())
        assert empty.has_integral_basket
        with pytest.raises(TypeError):
            ChernRecord(indices, 1, Fraction(0), 2, has_integral_basket=False)

    def test_rejects_witness_of_another_multiset(self):
        indices = parse_index_multiset("2^16")
        with pytest.raises(ValueError, match="does not project"):
            ChernRecord(indices, 1, Fraction(0), 2, witness=parse_basket("(1,2)^8"))

    def test_rejects_witness_with_fractional_l2(self):
        indices = parse_index_multiset("2")
        with pytest.raises(ValueError):
            ChernRecord(
                indices=indices,
                chi0=1,
                c1c2=c1c2_from_indices(indices, 1),
                cartier_index=2,
                witness=parse_basket("(1,2)"),
            )


def split(groups, rem, r_x, witness=None):
    """The walk's item (head, last, rem, lcm, witness) for runs: ((), None, ...) for no runs."""
    if not groups:
        return groups, None, rem, r_x, witness
    return groups[:-1], groups[-1], rem, r_x, witness


def consistent(groups, chi0, scale):
    """The item of the runs groups with no witness at scale, c1c2 as a χ = chi0 row."""
    indices = IndexMultiset(groups)
    rem = (24 * chi0 - indices.weight) * scale
    assert rem.denominator == 1
    return split(groups, int(rem), cartier_index(indices))


class Runs(tuple):
    """A tuple of another type, which no check takes for runs."""


class TestCheckedRowMutants:
    """`checked_lines` applies every record check: one bad raw item per check raises."""

    @staticmethod
    @lru_cache(maxsize=None)
    def chi1_raw():
        return _enumerate_raw(Fraction(24), ALL, jobs=1)

    @classmethod
    def walked(cls, text):
        """The χ = 1 walk's raw item (head, last, rem, lcm, witness) for a multiset, and the scale."""
        raw, scale = cls.chi1_raw()
        groups = parse_index_multiset(text).groups
        return next(item for item in raw if item[0] + (item[1],) == groups), scale

    @staticmethod
    def rows(monkeypatch, item, warm=()):
        """The rows that reach the renderer when the χ = 1 walk's one task yields item.

        The task yields the items warm first, so item is checked with their
        heads in the task's memo, and right after the last of them.
        """
        monkeypatch.setattr(enumeration, "_tasks", lambda *args: [(Fraction(24), ALL, 2, 1)])
        monkeypatch.setattr(enumeration, "_run_task", lambda task: [*warm, item])
        rendered = []

        def render(rows):
            rows = list(rows)
            rendered.extend(rows)
            return "row\n" * len(rows)

        assert checked_lines(EnumerationQuery(chi0=1), render) == ["row"] * (len(warm) + 1)
        return rendered

    def test_walked_items_pass(self, monkeypatch):
        (head, last, rem, lcm, witness), scale = self.walked("2^16")
        assert (head, last, witness) == ((), (2, 16), (((2, 1), 16),))
        [(*fields, scaled)] = self.rows(monkeypatch, (head, last, rem, lcm, witness))
        assert fields == ["2^16", 2, "0", "true", "(1,2)^16"]
        assert Fraction(scaled, fields[1]) == Fraction(rem, scale)

    @pytest.mark.parametrize(
        "text, mutate, message",
        [
            ("2^3,4,7,9", lambda h, last, rem, lcm, w: (h, last, rem + 1, lcm, w), "c1c2 mismatch"),
            ("2^3,4,7,9", lambda h, last, rem, lcm, w: (h, last, rem, 2 * lcm, w),
             "Cartier index mismatch"),
            ("2^3,4,7,9", lambda h, last, rem, lcm, w: (h[1:2] + h[:1] + h[2:], last, rem, lcm, w),
             "not ascending"),
            ("2^16", lambda h, last, rem, lcm, w: (h + (last,), (3, 0), rem, lcm, w), "multiplicity"),
            ("2^16", lambda h, last, rem, lcm, w: (((1, 1),) + h, last, rem, lcm, w), "local index"),
            ("2^16", lambda h, last, rem, lcm, w: (h, last, rem, lcm, (((2, 1), 8),)),
             "does not project"),
            ("2", lambda h, last, rem, lcm, w: (h, last, rem, lcm, (((2, 1), 1),)), "non-integral l"),
            # each mutation of a run, in the last run as well as in the head
            ("2^3,4,7,9", lambda h, last, rem, lcm, w: (h[:-1] + (last,), h[-1], rem, lcm, w),
             "not ascending"),
            ("2^3,4,7,9", lambda h, last, rem, lcm, w: (((2, 0),) + h[1:], last, rem, lcm, w),
             "multiplicity must be >= 1, got 0"),
            ("2^16", lambda h, last, rem, lcm, w: (h + (last,), (1, 1), rem, lcm, w),
             "local index must be >= 2, got 1"),
            ("2^3,4,7,9", lambda h, last, rem, lcm, w: ((list(h[0]),) + h[1:], last, rem, lcm, w),
             "not ascending"),
            ("2^3,4,7,9", lambda h, last, rem, lcm, w: (h, list(last), rem, lcm, w), "not ascending"),
            ("2^16", lambda h, last, rem, lcm, w: (h, (1, 1), rem, lcm, w),
             "local index must be >= 2, got 1"),
            ("2^3,4,7,9", lambda h, last, rem, lcm, w: (list(h), last, rem, lcm, w), "not ascending"),
            ("2^3,4,7,9", lambda h, last, rem, lcm, w: (h, (7, 1), rem, lcm, w), "not ascending"),
            ("2^3,4,7,9", lambda h, last, rem, lcm, w: (h, (), rem, lcm, w), "not enough values"),
            ("2^3,4,7,9", lambda h, last, rem, lcm, w: (Runs(h), last, rem, lcm, w), "not ascending"),
            ("2^3,4,7,9", lambda h, last, rem, lcm, w: (h, Runs(last), rem, lcm, w), "not ascending"),
        ],
        ids=["rem", "lcm", "run-order", "multiplicity-0", "index-1", "other-witness",
             "fractional-l", "run-order-last", "multiplicity-0-head", "index-1-last",
             "list-run-head", "list-run-last", "sole-index-1", "list-head", "repeat-last",
             "empty-last", "tuple-subclass-head", "tuple-subclass-last"],
    )
    def test_bad_item_raises(self, monkeypatch, text, mutate, message):
        # with an empty memo; right after the item's own walked row, so a
        # mutant that keeps the head object meets it as the previous row's;
        # and after every χ = 1 row
        item, _ = self.walked(text)
        raw, _ = self.chi1_raw()
        before = raw[: raw.index(item) + 1]
        for warm in ((), before, raw):
            with pytest.raises(ValueError, match=message):
                self.rows(monkeypatch, mutate(*item), warm)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda h, last: (h, (9, 1.0)),
            lambda h, last: (h, (9.0, 1)),
            lambda h, last: (h[:-1] + ((7, 1.0),), last),
            lambda h, last: (h[:-1] + ((7.0, 1),), last),
            lambda h, last: (((2, 3.0),) + h[1:], last),
            lambda h, last: (((2.0, 3),) + h[1:], last),
            lambda h, last: (h, (9, True)),
            lambda h, last: (h[:-1] + ((7, True),), last),
        ],
        ids=["float-k-last", "float-r-last", "float-k-head", "float-r-head", "float-k-deep",
             "float-r-deep", "bool-k-last", "bool-k-head"],
    )
    def test_float_run_raises_as_check_record(self, monkeypatch, mutate):
        # a run equal to an int run, and hashing alike, right after the
        # walked row whose runs it equals: no memo may take it for that run,
        # neither the head's entry nor, deeper in the head, its parent's;
        # `IndexMultiset` rejects it, naming the run
        item, scale = self.walked("2^3,4,7,9")
        raw, _ = self.chi1_raw()
        head, last, rem, lcm, witness = item
        head, last = mutate(head, last)
        assert head + (last,) == item[0] + (item[1],)
        expected = outcome(enumeration.check_record, head + (last,), 1, rem, scale, lcm, witness)
        assert expected[0] is ValueError and "must be ints" in expected[1]
        with pytest.raises(expected[0]) as raised:
            self.rows(monkeypatch, (head, last, rem, lcm, witness), raw[: raw.index(item) + 1])
        assert str(raised.value) == expected[1]

    def test_negative_c1c2_raises(self, monkeypatch):
        # 2^16,3 weighs more than 24: consistent, but c1c2 < 0
        (head, last, _, _, _), scale = self.walked("2^16")
        groups = head + (last, (3, 1))
        rem = c1c2_from_indices(IndexMultiset(groups), 1) * scale
        assert rem < 0 and rem.denominator == 1
        with pytest.raises(ValueError, match="negative c1c2"):
            self.rows(monkeypatch, (head + (last,), (3, 1), int(rem), 6, None))

    def test_list_head_of_two_rows_raises_on_both(self, monkeypatch):
        # one list head shared by two consecutive rows: the first row raises,
        # and so does the second, alone or after a row whose head is the
        # equal tuple
        _, scale = self.chi1_raw()
        head = parse_index_multiset("2^3,4,7").groups
        first, second = (consistent(head + (run,), 1, scale) for run in [(9, 1), (8, 1)])
        shared = list(head)
        bad = [(shared, *first[1:]), (shared, *second[1:])]
        for warm, item in [((), bad[0]), (bad[:1], bad[1]), ((), bad[1]), ((first,), bad[1])]:
            with pytest.raises(ValueError, match="not ascending"):
                self.rows(monkeypatch, item, warm)

    def test_equal_head_of_another_object_gives_the_same_row(self, monkeypatch):
        # a row whose head equals the previous row's but is another object is
        # looked up, not stepped from the previous row, and renders the same
        _, scale = self.chi1_raw()
        head = parse_index_multiset("2^3,4,7").groups
        first, second = (consistent(head + (run,), 1, scale) for run in [(9, 1), (8, 1)])
        shared, copied = first[0], tuple(list(first[0]))
        assert copied == shared and copied is not shared
        same = self.rows(monkeypatch, (shared, *second[1:]), [first])
        assert self.rows(monkeypatch, (copied, *second[1:]), [first]) == same
        assert same[1][:3] == ("2^3,4,7,8", 56, "57/56")


# mutants of the χ = 1 walk's witness runs for 2,4,8^2, (1,2),(1,4),(1,8),(3,8):
# (mutation, message on both paths); None where a `Basket` takes the runs as
# they are and a record keeps its canonical witness
WITNESS_MUTANTS = {
    "wrong-b": (lambda w: w[:2] + (((8, 1), 2),), "witness has non-integral l(2) = 3/2"),
    "dropped-point": (lambda w: w[1:], "witness does not project onto the index multiset"),
    "other-multiset": (lambda w: (((7, 1), 1), ((7, 2), 1), ((7, 3), 1)),
                       "witness does not project onto the index multiset"),
    "b-not-coprime": (lambda w: w[:3] + (((8, 2), 1),), "b and r must be coprime, got (2,8)"),
    "2b-above-r": (lambda w: w[:3] + (((8, 5), 1),), "point (5,8) violates 2b <= r"),
    "out-of-order": (lambda w: w[:2] + w[3:] + w[2:3], None),
    "k=0": (lambda w: w[:1] + (((4, 1), 0),) + w[2:], "multiplicity must be >= 1, got 0"),
    "float-k": (lambda w: w[:3] + (((8, 3), 1.0),),
                "multiplicity of point (3,8) must be an int, got 1.0"),
    "bool-k": (lambda w: w[:3] + (((8, 3), True),),
               "multiplicity of point (3,8) must be an int, got True"),
    "bool-b": (lambda w: w[:2] + (((8, True), 1),) + w[3:], "b and r must be ints, got (True,8)"),
    "float-b": (lambda w: w[:2] + (((8, 1.0), 1),) + w[3:], "b and r must be ints, got (1.0,8)"),
    "float-r": (lambda w: w[:2] + (((8.0, 1), 1),) + w[3:], "b and r must be ints, got (1,8.0)"),
}


class TestWitnessMutants:
    """Each witness mutant raises the same error on the row path as in a `ChernRecord`."""

    @staticmethod
    def mutant(name):
        (head, last, rem, lcm, witness), scale = TestCheckedRowMutants.walked("2,4,8^2")
        assert witness == (((2, 1), 1), ((4, 1), 1), ((8, 1), 1), ((8, 3), 1))
        mutate, message = WITNESS_MUTANTS[name]
        return (head, last, rem, lcm, mutate(witness)), scale, message

    @pytest.mark.parametrize("name", WITNESS_MUTANTS)
    def test_rows(self, monkeypatch, name):
        # check_record alone, before rendering builds any BasketPoint, and
        # the rows of checked_lines
        (head, last, rem, lcm, runs), scale, message = self.mutant(name)
        message = re.escape(message or f"witness runs {runs} are not ascending by (r, b)")
        with pytest.raises(ValueError, match=message):
            enumeration.check_record(head + (last,), 1, rem, scale, lcm, runs)
        with pytest.raises(ValueError, match=message):
            TestCheckedRowMutants.rows(monkeypatch, (head, last, rem, lcm, runs))

    @pytest.mark.parametrize("name", WITNESS_MUTANTS)
    def test_record(self, name):
        (head, last, rem, lcm, runs), scale, message = self.mutant(name)

        def record():
            witness = enumeration._basket(runs)
            return ChernRecord(IndexMultiset(head + (last,)), 1, Fraction(rem, scale), lcm, witness)

        if message is None:
            assert record().witness == parse_basket("(1,2),(1,4),(1,8),(3,8)")
        else:
            with pytest.raises(ValueError, match=re.escape(message)):
                record()

    def test_rejected_run_makes_no_text(self, monkeypatch):
        # ((2, 1), 4.0) equals ((2, 1), 4) and hashes alike, and the witness
        # run texts are kept by value, so it must raise before its text is
        # made, or the int run would render as (1,2)^4.0 after it
        texts = enumeration._Memo(enumeration._witness_run_text.__self__._compute)
        monkeypatch.setattr(enumeration, "_witness_run_text", texts.__getitem__)
        head = parse_index_multiset("2^4").groups
        message = re.escape("multiplicity of point (1,2) must be an int, got 4.0")
        with pytest.raises(ValueError, match=message):
            enumeration.check_record(head, 2, 84, 2, 2, (((2, 1), 4.0),))
        with pytest.raises(ValueError, match=message):
            list(enumeration._checked_rows([(head, None, 84, 2, (((2, 1), 4.0),))], 2, 2))
        [row] = enumeration._checked_rows([(head, None, 84, 2, (((2, 1), 4),))], 2, 2)
        assert row[3:5] == ("true", "(1,2)^4")


def reference_check(groups, chi0, num, den, r_x, witness):
    """The record rules in one from-scratch pass over every run; returns (text, c1c2 * lcm).

    The witness, given as runs ((r, b), k), is checked as a `Basket` whose
    every l(m) the full-period scan `first_fractional_l` tests.
    """
    if IndexMultiset.canonical_runs(groups) is not groups:
        raise ValueError(f"index runs {groups} are not ascending tuples")
    derived = lcm(*[r for r, _ in groups])
    scaled = 24 * chi0 * derived - sum(k * (r * r - 1) * (derived // r) for r, k in groups)
    text = format_index_multiset(IndexMultiset(groups))
    if num * derived != scaled * den:
        raise ValueError(
            f"c1c2 mismatch for {text}: "
            f"stated {Fraction(num, den)}, derived {Fraction(scaled, derived)}"
        )
    if scaled < 0:
        raise ValueError(f"{text} has negative c1c2 {Fraction(num, den)}")
    if r_x != derived:
        raise ValueError(f"Cartier index mismatch for {text}")
    if witness is not None:
        for (r, b), k in witness:
            BasketPoint(b, r)
            if k < 1:
                raise ValueError(f"multiplicity must be >= 1, got {k}")
        points = [point for point, _ in witness]
        if points != sorted(set(points)):
            raise ValueError(f"witness runs {witness} are not ascending by (r, b)")
        basket = Basket(tuple((BasketPoint(b, r), k) for (r, b), k in witness))
        if basket.index_multiset().groups != groups:
            raise ValueError("witness does not project onto the index multiset")
        m = first_fractional_l(basket)
        if m is not None:
            raise ValueError(f"witness has non-integral l({m}) = {l_value(basket, m)}")
    return text, scaled


def outcome(check, *args):
    """What check(*args) returns, or the type and message of what it raises."""
    try:
        return "ok", check(*args)
    except Exception as exc:  # noqa: BLE001  (the exception is the outcome)
        return type(exc), str(exc)


CENSUS_SCALE = lcm(*range(1, 49))  # the χ = 2 walk's scale
# canonical index runs: up to 8 distinct indices in 2..48, multiplicities 1..6
runs_strategy = st.lists(st.integers(2, 48), max_size=8, unique=True).flatmap(
    lambda indices: st.tuples(*(st.tuples(st.just(r), st.integers(1, 6)) for r in sorted(indices)))
)


MUTATIONS = [
    "none", "rem+1", "rem-1", "lcm*2", "swap", "repeat", "k=0", "index-1", "list", "sole-1",
    "float-k", "float-r", "bool-k", "bool-r",
]


def last_row(items, chi0, scale, heads=None):
    """(text, scaled) of the last row `_checked_rows` makes of the items."""
    *_, row = enumeration._checked_rows(items, chi0, scale, heads)
    return row[0], row[-1]


class TestPrefixMemoOracle:
    """`_checked_rows` through its head memo agrees with `check_record` from scratch and one full pass."""

    @settings(max_examples=300, deadline=None)
    @given(
        chi0=st.sampled_from([0, 1, 2]),
        groups=runs_strategy,
        warm=st.lists(runs_strategy, max_size=6),
        mutation=st.sampled_from(MUTATIONS),
        position=st.integers(0, 7),
        with_witness=st.booleans(),
    )
    # float-k on a row with c1c2 = 0, whose stated 0 the float weight
    # matches; bool-k on a run of multiplicity 1, which True equals
    @example(chi0=1, groups=((5, 5),), warm=[], mutation="float-k", position=0,
             with_witness=False)
    @example(chi0=1, groups=((2, 3), (4, 1), (8, 2)), warm=[], mutation="float-k", position=2,
             with_witness=True)
    @example(chi0=1, groups=((5, 1),), warm=[], mutation="bool-k", position=0,
             with_witness=False)
    @example(chi0=2, groups=((2, 3), (4, 1), (7, 1)), warm=[((2, 3), (4, 1))],
             mutation="bool-k", position=1, with_witness=True)
    @example(chi0=1, groups=((2, 1), (3, 1)), warm=[], mutation="bool-r", position=0,
             with_witness=False)
    def test_memo_matches_memo_less_and_full_pass(
        self, chi0, groups, warm, mutation, position, with_witness
    ):
        runs, original = groups, consistent(groups, chi0, CENSUS_SCALE)
        _, _, rem, r_x, witness = original
        if with_witness and groups and r_x <= 5000:  # the reference scans one period of l
            ok, basket = exists_integral_basket(IndexMultiset(groups))
            # else b = 1 for every point: some l(m) is fractional
            witness = enumeration._runs(basket) if ok else tuple(((r, 1), k) for r, k in groups)
        j = position % len(groups) if groups else 0
        r, k = groups[j] if groups else (2, 1)
        if mutation == "rem+1":
            rem += 1
        elif mutation == "rem-1":
            rem -= 1
        elif mutation == "lcm*2":
            r_x *= 2
        elif mutation == "swap" and len(groups) > 1:
            j = min(j, len(groups) - 2)
            groups = groups[:j] + (groups[j + 1], groups[j]) + groups[j + 2:]
        elif mutation == "repeat" and len(groups) > 1:  # run j takes the index before it
            j = max(j, 1)
            groups = groups[:j] + ((groups[j - 1][0], groups[j][1]),) + groups[j + 1:]
        elif mutation == "k=0" and groups:
            groups = groups[:j] + ((r, 0),) + groups[j + 1:]
        elif mutation == "index-1" and groups:
            groups = groups[:j] + ((1, k),) + groups[j + 1:]
        elif mutation == "list" and groups:
            groups = groups[:j] + ([r, k],) + groups[j + 1:]
        elif mutation == "sole-1":
            groups = ((1, k),)
        elif mutation == "float-k" and groups:  # equal to run j, and hashing alike
            groups = groups[:j] + ((r, float(k)),) + groups[j + 1:]
        elif mutation == "float-r" and groups:
            groups = groups[:j] + ((float(r), k),) + groups[j + 1:]
        elif mutation == "bool-k" and groups:  # equal to run j where k = 1
            groups = groups[:j] + ((r, k == 1),) + groups[j + 1:]
        elif mutation == "bool-r" and groups:
            groups = groups[:j] + ((True, k),) + groups[j + 1:]
        item = split(groups, rem, r_x, witness)
        # the original row's head object, where the mutation left the head
        # alone: repr tells a float run from the int run it equals
        if original[1] is not None and repr(item[0]) == repr(original[0]):
            item = (original[0], *item[1:])

        args = (groups, chi0, rem, CENSUS_SCALE, r_x, witness)
        expected = outcome(reference_check, *args)
        assert outcome(enumeration.check_record, *args) == expected
        # a memo that holds the heads of other rows and of the item before it
        # was mutated, each checked as a row of its own
        heads = enumeration._Heads()
        for other in [*warm, runs]:
            with suppress(ValueError):  # a heavy multiset has c1c2 < 0
                last_row([consistent(other, chi0, CENSUS_SCALE)], chi0, CENSUS_SCALE, heads)
        assert outcome(last_row, [item], chi0, CENSUS_SCALE, heads) == expected
        # right after the row it was before the mutation, whose head object
        # it keeps when the mutation leaves the head alone
        if outcome(last_row, [original], chi0, CENSUS_SCALE)[0] == "ok":
            assert outcome(last_row, [original, item], chi0, CENSUS_SCALE) == expected

    @pytest.mark.parametrize("chi0", [0, 1, 2])
    def test_every_row_matches_check_record(self, chi0):
        # every χ <= 2 row under every filter kind, the empty multiset
        # included, each filter's walk sharing and replaying heads its own way
        reference = {}
        for flt in EVERY_FILTER_KIND:
            raw, scale = _enumerate_raw(Fraction(24 * chi0), flt, jobs=1, include_empty=True)
            rows = list(enumeration._checked_rows(raw, chi0, scale))
            assert len(rows) == len(raw)
            for (head, last, *fields), row in zip(raw, rows):
                key = (head if last is None else head + (last,), *fields[:2])
                if key not in reference:
                    reference[key] = enumeration.check_record(key[0], chi0, fields[0], scale, *fields[1:])
                assert (row[0], row[-1]) == reference[key]
        assert len(reference) == [1, 2152, 216684][chi0]

    @settings(max_examples=12, deadline=None)
    @given(RATIONAL_BUDGETS)
    @example(Fraction(47))
    @example(Fraction(95, 2))
    @example(Fraction(143, 3))
    def test_rational_budget_rows_match_check_record(self, budget):
        # the l2-integral walk's rows, with their cuts and replays, checked
        # as χ = 2 rows whose rem keeps the 48 - budget the walk did not spend
        raw, scale = _enumerate_raw(budget, INTEGRAL_L2, jobs=1)
        slack = int((48 - budget) * scale)
        items = [(head, last, rem + slack, *fields) for head, last, rem, *fields in raw]
        rows = list(enumeration._checked_rows(items, 2, scale))
        assert len(rows) == len(items)
        for (head, last, rem, r_x, witness), row in zip(items, rows):
            args = (head + (last,), 2, rem, scale, r_x, witness)
            assert (row[0], row[-1]) == enumeration.check_record(*args)


@lru_cache(maxsize=None)
def chi2_witnesses():
    """The runs of the χ = 2 l2-integral walk's 1,399 witnesses."""
    raw, _ = _enumerate_raw(Fraction(48), INTEGRAL_L2, jobs=1)
    return [witness for *_, witness in raw]


@st.composite
def witness_runs(draw):
    """Runs ((r, b), k) of a basket.

    Either up to six points drawn from indices 2..72, or a χ = 2 walk
    witness with one point's b redrawn or none.
    """
    if draw(st.booleans()):
        points = [point for point, k in draw(st.sampled_from(chi2_witnesses())) for _ in range(k)]
        i = draw(st.integers(0, len(points)))  # len(points): none redrawn
        if i < len(points):
            r = points[i][0]
            points[i] = (r, draw(st.sampled_from(admissible_b(r))))
    else:
        points = []
        for _ in range(draw(st.integers(1, 6))):
            r = draw(st.integers(2, 72))
            points += [(r, draw(st.sampled_from(admissible_b(r))))] * draw(st.integers(1, 4))
    return tuple(sorted(Counter(points).items()))


class TestWitnessRuleOracle:
    @settings(max_examples=300, deadline=None)
    @given(witness_runs())
    def test_l2_rule_matches_the_full_period_scan(self, runs):
        # the witness passes check_record iff every l(m) is integral, as the
        # full-period scan finds
        basket = enumeration._basket(runs)
        indices = basket.index_multiset()
        r_x = cartier_index(indices)
        # the scan runs over a whole period of l only when l(2) is integral
        assume(l_value(basket, 2).denominator != 1 or r_x <= 5000)
        chi0 = -(-indices.weight // 24)  # the least chi0 with c1c2 >= 0
        num = (24 * chi0 - indices.weight) * r_x
        args = (indices.groups, chi0, int(num), r_x, r_x, runs)
        result = outcome(enumeration.check_record, *args)
        assert result == outcome(reference_check, *args)
        assert (result[0] == "ok") == (first_fractional_l(basket) is None)


@settings(max_examples=12, deadline=None)
@given(RATIONAL_BUDGETS)
@example(Fraction(47))
@example(Fraction(95, 2))
@example(Fraction(143, 3))
def test_row_text_matches_fraction(budget):
    # every row of the budget's walk, checked as a χ = 2 row whose rem keeps
    # the 48 - budget the walk did not spend, at the walk's scale: its c1c2
    # text and md's approximate cell are those of Fraction(rem, scale)
    with enumeration.collector_paused():
        raw, scale = _enumerate_raw(budget, ALL, jobs=1)
        slack = (48 - budget) * scale
        assert slack.denominator == 1
        items = [(head, last, rem + int(slack), *fields) for head, last, rem, *fields in raw]
        rows = list(enumeration._checked_rows(items, 2, scale))
        # md's c1c2 and approximate cells
        cells = [line.split("\t")[2:4] for line in cli._render_md(rows).split("\n")[:-1]]
        expected = {}
        for _, _, rem, _, _ in items:
            if rem not in expected:
                value = Fraction(rem, scale)
                expected[rem] = [str(value), f"{float(value):.6g}"]
        assert [row[2] for row in rows] == [text for text, _ in cells]
        assert cells == [expected[rem] for _, _, rem, _, _ in items]


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(RecordFilter.KINDS),
    lo=st.fractions(min_value=-48, max_value=48, max_denominator=10**4),
    width=st.fractions(min_value=0, max_value=48, max_denominator=10**4),
    end=st.sampled_from(["lo", "hi", "zero", "budget", None]),
    scale=st.integers(1, 10**25),
    budget=st.integers(0, 10**27),
    rem=st.integers(-(10**27), 10**27),
    nudge=st.integers(-1, 1),
)
def test_range_filter_matches_fraction(kind, lo, width, end, scale, budget, rem, nudge):
    # every filter's integer window of rems against the Fraction test, with
    # rem/scale unreduced at either end of the range, of 0 and of the budget,
    # or one unit of 1/scale beside it
    flt = c1c2_in_range(lo, lo + width) if kind == "c1c2-range" else RecordFilter(kind)
    if end in ("lo", "hi"):
        bound = lo if end == "lo" else lo + width
        rem, scale = bound.numerator * scale + nudge, bound.denominator * scale
    elif end is not None:
        rem = (0 if end == "zero" else budget) + nudge
    window = flt.window(scale, budget)
    assert (rem in window) == (0 <= rem <= budget and filter_keeps(flt, Fraction(rem, scale)))


class TestReproduceTable:
    def test_table_one_matches(self):
        check = reproduce_table(1)
        assert check.ok
        assert len(check.records) == 11
        produced = {
            (rec.indices, rec.cartier_index) for rec in check.records
        }
        assert (parse_index_multiset("2^2,3^2,4,12"), 12) in produced

    def test_table_two_matches(self):
        check = reproduce_table(2)
        assert check.ok
        assert len(check.records) == 40
        produced = {
            (rec.indices, rec.cartier_index, rec.c1c2) for rec in check.records
        }
        assert (parse_index_multiset("2^4,3^3,5^2"), 30, Fraction(2, 5)) in produced
        assert (parse_index_multiset("2^4"), 2, Fraction(18)) in produced

    def test_missing_fixture_row_is_reported(self):
        fixture = [row for row in tables.table_rows(2) if row.c1c2 != Fraction(2, 5)]
        check = reproduce_table(2, fixture=fixture)
        assert not check.ok
        assert not check.missing
        assert [row.indices for row in check.extra] == [
            parse_index_multiset("2^4,3^3,5^2")
        ]

    def test_tampered_fixture_row_is_reported(self):
        rows = list(tables.table_rows(1))
        rows[0] = tables.TableRow(rows[0].indices, 999, rows[0].c1c2)
        check = reproduce_table(1, fixture=rows)
        assert not check.ok
        assert any(row.cartier_index == 999 for row in check.missing)
        assert any(row.indices == rows[0].indices for row in check.extra)

    def test_fixture_closure_between_tables(self):
        # every zero-c1c2 row of table 2 also appears in table 1
        table1 = {row.indices for row in tables.table_rows(1)}
        zero_rows = [row for row in tables.table_rows(2) if row.c1c2 == 0]
        assert len(zero_rows) == 8
        assert {row.indices for row in zero_rows} <= table1

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            reproduce_table(3)

    @pytest.mark.parametrize("table", [1, 2])
    def test_fixture_text_uses_emitted_canonical_forms(self, table):
        # re-serializing each parsed fixture row reproduces its line exactly
        from chern3 import format_index_multiset
        from chern3.tables import CHI1_C1C2_ZERO, CHI1_L2_INTEGRAL

        text = CHI1_C1C2_ZERO if table == 1 else CHI1_L2_INTEGRAL
        for line, row in zip(text.strip().splitlines(), tables.table_rows(table)):
            rebuilt = f"{format_index_multiset(row.indices)} {row.cartier_index} {row.c1c2}"
            assert rebuilt == line


class TestExtremes:
    def test_minimum_unfiltered(self):
        value, attaining = min_positive_c1c2(1)
        assert value == Fraction(1, 252)
        assert attaining == [parse_index_multiset("2^3,4,7,9")]

    def test_minimum_integral(self):
        value, attaining = min_positive_c1c2(1, require_integral=True)
        assert value == Fraction(2, 5)
        assert attaining == [parse_index_multiset("2^4,3^3,5^2")]

    def test_chi_zero_has_no_positive_value(self):
        with pytest.raises(NoPositiveValueError):
            min_positive_c1c2(0)

    def test_counts(self):
        assert count_candidates(1, C1C2_ZERO) == 11
        assert count_candidates(1, INTEGRAL_L2) == 40
        assert count_candidates(0, include_empty=True) == 1

    @pytest.mark.parametrize("chi0", [0, 1, 2])
    def test_counts_match_the_records(self, chi0):
        # the χ = 2 records are built for the cheap filters only; its full
        # census is pinned
        for flt in EVERY_FILTER_KIND if chi0 < 2 else [C1C2_ZERO, INTEGRAL_L2]:
            for include_empty in (False, True):
                query = EnumerationQuery(chi0=chi0, filter=flt, include_empty=include_empty)
                expected = len(enumerate_index_multisets(query))
                assert count_candidates(chi0, flt, include_empty) == expected
        if chi0 == 2:
            assert count_candidates(2) == 216683
            assert count_candidates(2, include_empty=True) == 216684

    def test_counts_skip_the_sort_and_free_the_memo(self, monkeypatch):
        # a count sums the tasks' lengths: `_enumerate_raw`'s sort and gather never run
        monkeypatch.setattr(enumeration, "_enumerate_raw", None)
        assert count_candidates(1, INTEGRAL_L2) == 40
        assert count_candidates(1, include_empty=True) == 2152
        assert enumeration._walked.cache_info().currsize == 0
        monkeypatch.setattr(enumeration, "_witness_runs", lambda groups, rmax: None)
        with pytest.raises(RuntimeError):
            count_candidates(1)
        assert enumeration._walked.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "chi0, flt, include_empty",
        [(1, ALL, False), (1, ALL, True), (1, INTEGRAL_L2, False), (2, INTEGRAL_L2, False)],
    )
    def test_folds_run_the_tasks_as_the_driver_does(self, monkeypatch, chi0, flt, include_empty):
        # the count and the minimum run the tasks last first, as
        # `_enumerate_raw` does, so the l(2) walk's memo is filled alike
        ran = []
        real = enumeration._run_task

        def recording(task):
            ran.append(task)
            return real(task)

        monkeypatch.setattr(enumeration, "_run_task", recording)
        max_weight = Fraction(24 * chi0)
        _enumerate_raw(max_weight, flt, 1, include_empty)
        assert ran == enumeration._tasks(max_weight, flt, include_empty)[::-1]
        driven = ran[:]
        ran.clear()
        count_candidates(chi0, flt, include_empty)
        assert ran == driven
        if not include_empty:
            ran.clear()
            min_positive_c1c2(chi0, require_integral=flt is INTEGRAL_L2)
            assert ran == driven

    def test_minimum_skips_the_sort_and_frees_the_memo(self, monkeypatch):
        # a fold over the tasks: `_enumerate_raw`'s sort and gather never run
        monkeypatch.setattr(enumeration, "_enumerate_raw", None)
        assert min_positive_c1c2(1) == (Fraction(1, 252), [parse_index_multiset("2^3,4,7,9")])
        assert enumeration._walked.cache_info().currsize == 0
        monkeypatch.setattr(enumeration, "_witness_runs", lambda groups, rmax: None)
        with pytest.raises(RuntimeError):
            min_positive_c1c2(1, require_integral=True)
        assert enumeration._walked.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "chi0, require_integral", [(1, False), (1, True), (2, True)]
    )
    def test_minimum_matches_the_records(self, chi0, require_integral):
        flt = INTEGRAL_L2 if require_integral else ALL
        positive = [
            rec
            for rec in enumerate_index_multisets(EnumerationQuery(chi0=chi0, filter=flt))
            if rec.c1c2 > 0
        ]
        best = min(rec.c1c2 for rec in positive)
        expected = best, [rec.indices for rec in positive if rec.c1c2 == best]
        assert min_positive_c1c2(chi0, require_integral) == expected

    def test_chi2_minima(self):
        value, attaining = min_positive_c1c2(2)
        assert value == Fraction(1, 2310)
        assert [format_index_multiset(m) for m in attaining] == [
            "2^10,3^2,7,10,11", "2^7,3^2,5^3,7,11", "2^7,5,7,11,15",
            "2^5,3^2,4^2,7,10,11", "2^4,3,6^2,7,10,11", "2^2,3^2,4^2,5^3,7,11",
            "2^2,4^2,5,7,11,15", "2,3,5^3,6^2,7,11", "3^2,4^4,7,10,11",
        ]
        value, attaining = min_positive_c1c2(2, require_integral=True)
        assert (value, [format_index_multiset(m) for m in attaining]) == (
            Fraction(1, 15), ["2,3,4^2,5^2,9^3"]
        )

    def test_effective_bound(self):
        assert effective_bound(Fraction(1, 252)) == 81648
        assert 81648 == 2**4 * 3**6 * 7
        assert effective_bound(Fraction(324)) == 1
        assert effective_bound(Fraction(24), Fraction(72)) == 3

    def test_effective_bound_rejects_non_positive(self):
        with pytest.raises(ValueError):
            effective_bound(Fraction(0))
        with pytest.raises(ValueError):
            effective_bound(Fraction(-1, 5))
