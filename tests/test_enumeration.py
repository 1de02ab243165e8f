"""Enumeration tests: oracle equivalence, table reproduction, integral baskets."""

import gc
import multiprocessing
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

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
    c1c2_from_indices,
    c1c2_in_range,
    cartier_index,
    count_candidates,
    effective_bound,
    enumerate_index_multisets,
    exists_integral_basket,
    feasible_index_multisets,
    l_value,
    min_positive_c1c2,
    parse_basket,
    parse_index_multiset,
    reproduce_table,
)
from chern3 import cli, enumeration, tables
from chern3.enumeration import _enumerate_raw, checked_lines, fraction_text, max_index


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


def empty_multiset_passes(flt, chi0):
    """Does the empty multiset, c1c2 = 24*chi0 and l(m) = 0, pass the filter?"""
    if flt.kind == "c1c2-zero":
        return chi0 == 0
    if flt.kind == "c1c2-range":
        return flt.lo <= 24 * chi0 <= flt.hi
    return True


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
        walked = {IndexMultiset(groups).indices(): witness for groups, _, _, witness in raw}
        reference = wide_reachability(Fraction(24 * chi0))
        assert {node: w is not None for node, w in walked.items()} == reference
        hits = [(node, w) for node, w in walked.items() if w is not None]
        assert len(hits) == integral
        for node, witness in hits:
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
        real = enumeration.exists_integral_basket

        def recording(indices):
            seen.append(gc.isenabled())
            return real(indices)

        monkeypatch.setattr(enumeration, "exists_integral_basket", recording)
        gc.enable()
        enumerate_index_multisets(EnumerationQuery(chi0=1, filter=INTEGRAL_L2))
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_restored_after_an_error(self, monkeypatch, restore_gc):
        monkeypatch.setattr(enumeration, "exists_integral_basket", lambda indices: (False, None))
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
        monkeypatch.setattr(enumeration, "exists_integral_basket", lambda indices: (False, None))
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

    @pytest.mark.parametrize("max_weight", [Fraction(24), Fraction(37, 3)])
    def test_chunks_join_in_output_order(self, monkeypatch, max_weight):
        # the task chunks, joined in task order, are already in lexicographic
        # order of the expanded index sequence, before the sort by weight
        chunks = []
        real = enumeration._run_task

        def recording(task):
            chunks.append(real(task))
            return chunks[-1]

        monkeypatch.setattr(enumeration, "_run_task", recording)
        raw, _ = _enumerate_raw(max_weight, ALL, jobs=1)
        joined = [IndexMultiset(item[0]).indices() for chunk in chunks for item in chunk]
        assert joined == sorted(set(joined))
        assert len(joined) == len(raw)

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
        real = enumeration.exists_integral_basket

        def recording(indices):
            decided.append(indices)
            return real(indices)

        monkeypatch.setattr(enumeration, "exists_integral_basket", recording)
        records = enumerate_index_multisets(EnumerationQuery(chi0=1, filter=C1C2_ZERO))
        assert decided
        assert set(decided) <= {rec.indices for rec in records}

    def test_walk_hands_over_only_integral_multisets(self, monkeypatch):
        # the walk runs the same l(2) DP as exists_integral_basket, so every
        # multiset it hands over has an integral basket
        outcomes = []
        real = enumeration.exists_integral_basket

        def recording(indices):
            ok, witness = real(indices)
            outcomes.append(ok)
            return ok, witness

        monkeypatch.setattr(enumeration, "exists_integral_basket", recording)
        records = enumerate_index_multisets(EnumerationQuery(chi0=1))
        assert all(outcomes)
        assert len(outcomes) == sum(rec.has_integral_basket for rec in records) == 40

    @pytest.mark.parametrize("chi0", [0, 1])
    def test_walk_carries_cartier_index(self, chi0):
        raw, _ = _enumerate_raw(Fraction(24 * chi0), ALL, jobs=1)
        for groups, _, lcm, _ in raw:
            assert lcm == cartier_index(IndexMultiset(groups))
        records = enumerate_index_multisets(
            EnumerationQuery(chi0=chi0, include_empty=True)
        )
        assert len(records) == len(raw) + 1
        for rec in records:
            assert rec.cartier_index == cartier_index(rec.indices)

    @pytest.mark.parametrize("chi0", [0, 1])
    def test_walk_emits_canonical_groups(self, chi0):
        # canonical runs are kept as they are, so records reuse the walk's tuples
        raw, _ = _enumerate_raw(Fraction(24 * chi0), ALL, jobs=1)
        for groups, *_ in raw:
            assert IndexMultiset(groups).groups is groups


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


class TestCheckedRowMutants:
    """`checked_lines` applies every record check: one bad raw item per check raises."""

    @staticmethod
    def walked(text):
        """The χ = 1 walk's raw item for a multiset, and the walk's scale."""
        raw, scale = _enumerate_raw(Fraction(24), ALL, jobs=1)
        groups = parse_index_multiset(text).groups
        return next(item for item in raw if item[0] == groups), scale

    @staticmethod
    def rows(monkeypatch, item):
        """The rows that reach the renderer when the χ = 1 walk's one task yields item."""
        monkeypatch.setattr(enumeration, "_tasks", lambda *args: [(Fraction(24), ALL, 2, 1)])
        monkeypatch.setattr(enumeration, "_run_task", lambda task: [item])
        rendered = []

        def render(rows):
            rows = list(rows)
            rendered.extend(rows)
            return "row\n" * len(rows)

        assert checked_lines(EnumerationQuery(chi0=1), render) == ["row"]
        return rendered

    def test_walked_items_pass(self, monkeypatch):
        (groups, rem, lcm, witness), scale = self.walked("2^16")
        assert witness == parse_basket("(1,2)^16")
        [(fields, num, den)] = self.rows(monkeypatch, (groups, rem, lcm, witness))
        assert fields == ("2^16", "2", "0", "true", "(1,2)^16")
        assert (num, den) == (rem, scale)

    @pytest.mark.parametrize(
        "text, mutate, message",
        [
            ("2^3,4,7,9", lambda g, rem, lcm, w: (g, rem + 1, lcm, w), "c1c2 mismatch"),
            ("2^3,4,7,9", lambda g, rem, lcm, w: (g, rem, 2 * lcm, w), "Cartier index mismatch"),
            ("2^3,4,7,9", lambda g, rem, lcm, w: (g[1:2] + g[:1] + g[2:], rem, lcm, w),
             "not ascending"),
            ("2^16", lambda g, rem, lcm, w: (g + ((3, 0),), rem, lcm, w), "multiplicity"),
            ("2^16", lambda g, rem, lcm, w: (((1, 1),) + g, rem, lcm, w), "local index"),
            ("2^16", lambda g, rem, lcm, w: (g, rem, lcm, parse_basket("(1,2)^8")),
             "does not project"),
            ("2", lambda g, rem, lcm, w: (g, rem, lcm, parse_basket("(1,2)")),
             "non-integral l"),
        ],
        ids=["rem", "lcm", "run-order", "multiplicity-0", "index-1", "other-witness",
             "fractional-l"],
    )
    def test_bad_item_raises(self, monkeypatch, text, mutate, message):
        item, _ = self.walked(text)
        with pytest.raises(ValueError, match=message):
            self.rows(monkeypatch, mutate(*item))

    def test_negative_c1c2_raises(self, monkeypatch):
        # 2^16,3 weighs more than 24: consistent, but c1c2 < 0
        (groups, _, _, _), scale = self.walked("2^16")
        groups += ((3, 1),)
        rem = c1c2_from_indices(IndexMultiset(groups), 1) * scale
        assert rem < 0 and rem.denominator == 1
        with pytest.raises(ValueError, match="negative c1c2"):
            self.rows(monkeypatch, (groups, int(rem), 6, None))


@settings(max_examples=500, deadline=None)
@given(rem=st.integers(min_value=0, max_value=10**30), scale=st.integers(1, 10**25))
@example(rem=0, scale=1)
@example(rem=0, scale=lcm(*range(1, 49)))
@example(rem=7 * lcm(*range(1, 49)), scale=lcm(*range(1, 49)))
@example(rem=3 * 5040, scale=32 * 5040)
def test_fraction_text_matches_fraction(rem, scale):
    assert fraction_text(rem, scale) == str(Fraction(rem, scale))
    # rem * scale is divisible by scale
    assert fraction_text(rem * scale, scale) == str(Fraction(rem * scale, scale))


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
