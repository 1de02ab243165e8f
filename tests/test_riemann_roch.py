"""Unit tests for the exact Riemann-Roch arithmetic."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from chern3 import (
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
from chern3.riemann_roch import first_fractional_l


def admissible_b(r):
    return [b for b in range(1, r // 2 + 1) if gcd(b, r) == 1]


@st.composite
def baskets(draw, max_r=30):
    groups = []
    for _ in range(draw(st.integers(0, 5))):
        r = draw(st.integers(2, max_r))
        b = draw(st.sampled_from(admissible_b(r)))
        mult = draw(st.integers(1, 4))
        groups.append((BasketPoint(b, r), mult))
    return Basket(tuple(groups))


index_multisets = st.lists(st.integers(2, 30), max_size=8).map(
    IndexMultiset.from_indices
)


class TestResidue:
    @pytest.mark.parametrize(
        "j,b,r,expected",
        [(1, 1, 2, 1), (2, 1, 2, 0), (3, 2, 5, 1), (7, 3, 11, 10)],
    )
    def test_values(self, j, b, r, expected):
        assert residue(j, b, r) == expected


class TestPointCorrection:
    def test_single_term(self):
        assert point_correction(BasketPoint(1, 2), 2) == Fraction(1, 4)

    def test_empty_sum(self):
        assert point_correction(BasketPoint(2, 5), 1) == 0

    def test_full_period(self):
        # the five-term sum (4 + 6 + 6 + 4 + 0)/10
        assert point_correction(BasketPoint(1, 5), 6) == 2

    def test_rejects_m_zero(self):
        with pytest.raises(ValueError):
            point_correction(BasketPoint(1, 2), 0)

    def test_period_identity_small_range(self):
        # summing over a full period of j gives (r^2 - 1)/12
        for r in range(2, 21):
            for b in admissible_b(r):
                total = point_correction(BasketPoint(b, r), r + 1)
                assert total == Fraction(r * r - 1, 12), (b, r)

    def test_summands_bounded_by_r_over_8(self):
        for r in (2, 5, 12, 17):
            for b in admissible_b(r):
                for j in range(1, r + 1):
                    t = residue(j, b, r)
                    assert 0 <= Fraction(t * (r - t), 2 * r) <= Fraction(r, 8)

    def test_first_term_symmetric_under_folding(self):
        # b(r-b)/(2r) is unchanged by b -> r - b, on the raw formula
        for r in range(2, 26):
            for b in range(1, r):
                if gcd(b, r) != 1:
                    continue
                left = Fraction(b * (r - b), 2 * r)
                right = Fraction((r - b) * b, 2 * r)
                assert left == right


class TestLValue:
    def test_seven_cubed(self):
        basket = parse_basket("(1,7),(2,7),(3,7)")
        assert l_value(basket, 2) == 2

    def test_empty_basket(self):
        assert l_value(Basket(), 2) == 0
        assert l_value(Basket(), 7) == 0

    def test_sixteen_half_points(self):
        basket = parse_basket("(1,2)^16")
        assert l_value(basket, 2) == 4

    @given(baskets())
    def test_l1_is_zero(self, basket):
        assert l_value(basket, 1) == 0

    @given(baskets())
    def test_l2_bounded(self, basket):
        bound = sum(
            (mult * Fraction(p.r, 8) for p, mult in basket.groups), Fraction(0)
        )
        assert 0 <= l_value(basket, 2) <= bound

    @given(baskets(), st.integers(1, 30))
    def test_lm_is_sum_of_squares_times_l2_mod_one(self, basket, m):
        # l(m) = (1^2 + ... + (m-1)^2) * l(2) (mod 1), so integral l(2)
        # forces integral l(m) for every m
        squares = sum(j * j for j in range(1, m))
        assert (l_value(basket, m) - squares * l_value(basket, 2)).denominator == 1


class TestFirstFractionalL:
    @settings(max_examples=200, deadline=None)
    @given(baskets(max_r=6))  # so r_X <= 60
    def test_matches_l_value_over_two_periods(self, basket):
        r_x = cartier_index(basket.index_multiset())
        l = {m: l_value(basket, m) for m in range(1, 2 * r_x + 3)}
        # l(m + r_X) = l(m) + l(r_X + 1): one period of m = 2..r_X + 1 settles every m
        for m in range(1, r_x + 1):
            assert l[m + r_x] == l[m] + l[r_x + 1], m
        fractional = [m for m in range(2, 2 * r_x + 3) if l[m].denominator != 1]
        assert first_fractional_l(basket) == (fractional[0] if fractional else None)


class TestChiMinusNk:
    @given(baskets(), st.integers(-3, 3), st.integers(-8, 8))
    def test_n_zero_returns_chi0(self, basket, chi0, kcube):
        ctx = ChernContext(chi0=chi0, anticanonical_cube=Fraction(kcube))
        assert chi_minus_nk(basket, ctx, 0) == chi0

    def test_smooth_fano_reduction(self):
        # no basket: chi(-K) = (-K)^3/2 + 3
        for kcube in (Fraction(2), Fraction(64), Fraction(1, 2)):
            ctx = ChernContext(chi0=1, anticanonical_cube=kcube)
            assert chi_minus_nk(Basket(), ctx, 1) == kcube / 2 + 3

    def test_sixteen_half_points_chi_minus_k(self):
        basket = parse_basket("(1,2)^16")
        ctx = ChernContext(chi0=1, anticanonical_cube=Fraction(0))
        assert chi_minus_nk(basket, ctx, 1) == -1

    @given(baskets(), st.integers(0, 5))
    def test_l_value_identity_when_cube_vanishes(self, basket, n):
        # with (-K)^3 = 0 the polynomial part drops out
        ctx = ChernContext(chi0=1, anticanonical_cube=Fraction(0))
        assert (2 * n + 1) * 1 - chi_minus_nk(basket, ctx, n) == l_value(basket, n + 1)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            chi_minus_nk(Basket(), ChernContext(1), -1)


class TestChiSeries:
    @settings(max_examples=100, deadline=None)
    @given(baskets(max_r=6), st.integers(-2, 2), st.fractions(max_denominator=7))
    def test_rows_match_l_value_and_chi_minus_nk(self, basket, chi0, kcube):
        # two periods of l and one more row, so the running sum crosses r_X
        ctx = ChernContext(chi0=chi0, anticanonical_cube=kcube)
        n_max = 2 * cartier_index(basket.index_multiset()) + 2
        rows = list(chi_series(basket, ctx, n_max))
        assert len(rows) == n_max + 1
        for n, (l, chi) in enumerate(rows):
            assert l == l_value(basket, n + 1), n
            assert chi == chi_minus_nk(basket, ctx, n), n

    @pytest.mark.parametrize("n_max", [-1, -3])
    def test_rejects_negative_n_max(self, n_max):
        # raised at the call, before any row is asked for
        with pytest.raises(ValueError, match=f"n_max must be >= 0, got {n_max}"):
            chi_series(parse_basket("(1,2)"), ChernContext(1), n_max)


class TestEulerIdentity:
    @pytest.mark.parametrize(
        "text,chi0,expected",
        [
            ("2^16", 1, Fraction(0)),
            ("", 1, Fraction(24)),
            ("", 2, Fraction(48)),
            ("", 0, Fraction(0)),
            ("2^3,4,7,9", 1, Fraction(1, 252)),
            ("7^3", 1, Fraction(24, 7)),
            ("2^4,3^3,5^2", 1, Fraction(2, 5)),
        ],
    )
    def test_values(self, text, chi0, expected):
        assert c1c2_from_indices(parse_index_multiset(text), chi0) == expected

    @given(index_multisets, st.integers(0, 2))
    def test_roundtrip(self, indices, chi0):
        c = c1c2_from_indices(indices, chi0)
        assert (c + indices.weight) / 24 == chi0

    @given(index_multisets, st.integers(2, 40))
    def test_appending_index_decreases_by_its_weight(self, indices, r):
        extended = IndexMultiset(indices.groups + ((r, 1),))
        drop = c1c2_from_indices(indices, 1) - c1c2_from_indices(extended, 1)
        assert drop == Fraction(r * r - 1, r)
        assert drop >= Fraction(3, 2)

    @given(index_multisets)
    def test_weight_is_reduced_fraction(self, indices):
        w = indices.weight
        assert isinstance(w, Fraction)
        assert gcd(w.numerator, w.denominator) == 1 and w.denominator >= 1

    @given(index_multisets)
    def test_weight_matches_naive_fraction_sum(self, indices):
        naive = sum(
            (mult * Fraction(r * r - 1, r) for r, mult in indices.groups), Fraction(0)
        )
        assert indices.weight == naive


class TestCartierIndex:
    @pytest.mark.parametrize(
        "text,expected",
        [("2^3,4,8^2", 8), ("", 1), ("2,3,5^2,6", 30), ("2^4,3^3,5^2", 30)],
    )
    def test_values(self, text, expected):
        assert cartier_index(parse_index_multiset(text)) == expected


class TestBasketPoint:
    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            BasketPoint(2, 4)

    def test_rejects_large_b(self):
        with pytest.raises(ValueError):
            BasketPoint(3, 4)

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            BasketPoint(1, 1)

    def test_normalized_folds(self):
        assert BasketPoint.normalized(3, 4) == BasketPoint(1, 4)
        assert BasketPoint.normalized(5, 7) == BasketPoint(2, 7)
        assert BasketPoint.normalized(9, 7) == BasketPoint(2, 7)
        assert BasketPoint.normalized(1, 2) == BasketPoint(1, 2)

    def test_normalized_still_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            BasketPoint.normalized(2, 4)


class TestCanonicalForms:
    def test_basket_merges_and_sorts(self):
        a = parse_basket("(2,7),(1,2),(1,2),(1,7)")
        b = parse_basket("(1,2)^2,(1,7),(2,7)")
        assert a == b
        assert format_basket(a) == "(1,2)^2,(1,7),(2,7)"

    def test_multiset_merges_and_sorts(self):
        assert format_index_multiset(parse_index_multiset("9,2,2,7,4,2")) == "2^3,4,7,9"

    def test_projection(self):
        basket = parse_basket("(1,7),(2,7),(3,7),(1,2)")
        assert basket.index_multiset() == parse_index_multiset("2,7^3")

    def test_empty_forms(self):
        assert format_index_multiset(IndexMultiset()) == "∅"
        assert format_basket(Basket()) == "∅"
        assert parse_index_multiset("∅") == IndexMultiset()
        assert parse_basket("") == Basket()

    @given(index_multisets)
    def test_multiset_parse_format_roundtrip(self, indices):
        assert parse_index_multiset(format_index_multiset(indices)) == indices

    @given(baskets())
    def test_basket_parse_format_roundtrip(self, basket):
        assert parse_basket(format_basket(basket)) == basket

    @pytest.mark.parametrize("text", ["2^1", "1,2", "x", "2,,3", "(2,4)", "(0,5)"])
    def test_malformed_inputs_raise(self, text):
        with pytest.raises(ValueError):
            if "(" in text:
                parse_basket(text)
            else:
                parse_index_multiset(text)

    @pytest.mark.parametrize(
        "text,expected",
        [("3/7", Fraction(3, 7)), ("-2", Fraction(-2)), ("0", Fraction(0)),
         ("24/7", Fraction(24, 7))],
    )
    def test_parse_rational(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["1.5", "3/", "/2", "a/b", "1/0"])
    def test_parse_rational_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_rational_format_is_str(self):
        assert str(Fraction(2, 4)) == "1/2"
        assert str(Fraction(-6, 3)) == "-2"
