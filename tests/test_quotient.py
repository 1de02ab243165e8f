"""Quotient-table arithmetic: profiles, induced indices, Enriques halving."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chern3 import (
    CoverType,
    IndexMultiset,
    QuotientScenario,
    SingularityProfile,
    check_scenario,
    derive_enriques,
    format_profile,
    indices_from_profile,
    parse_index_multiset,
    parse_profile,
    quotient_c1c2,
)
from chern3.quotient import P1_BUNDLE_OVER_ABELIAN_C1C2
from chern3.tables import table_rows

profiles = st.lists(st.tuples(st.integers(1, 30), st.integers(1, 12)), max_size=6).map(
    SingularityProfile
)


class TestProfiles:
    def test_parse_and_format(self):
        profile = parse_profile("2A_3,9A_1")
        assert profile.groups == ((1, 9), (3, 2))
        assert format_profile(profile) == "9A_1,2A_3"

    def test_single_types(self):
        assert parse_profile("A_5,A_2,A_1").groups == ((1, 1), (2, 1), (5, 1))

    def test_merging(self):
        assert parse_profile("A_1,A_1,2A_1") == parse_profile("4A_1")

    def test_empty(self):
        assert parse_profile("∅") == SingularityProfile()
        assert format_profile(SingularityProfile()) == "∅"

    @pytest.mark.parametrize("text", ["A_0", "0A_2", "B_3", "A_"])
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_profile(text)

    @given(profiles)
    def test_parse_format_roundtrip(self, profile):
        assert parse_profile(format_profile(profile)) == profile


class TestIndicesFromProfile:
    def test_mixed_profile(self):
        profile = parse_profile("4A_3,2A_1")
        assert indices_from_profile(profile) == parse_index_multiset("2^4,4^8")

    def test_empty_profile(self):
        assert indices_from_profile(SingularityProfile()) == IndexMultiset()

    def test_eight_nodes(self):
        assert indices_from_profile(parse_profile("8A_1")) == parse_index_multiset("2^16")

    def test_multiplicities_always_even(self):
        for row in table_rows(4):
            derived = indices_from_profile(row.profile)
            assert all(mult % 2 == 0 for _, mult in derived.groups)
            assert derived.size == 2 * row.profile.size


class TestQuotientC1c2:
    @pytest.mark.parametrize(
        "order,expected",
        [(60, Fraction(4, 5)), (2, Fraction(24)), (24, Fraction(2)), (1, Fraction(48))],
    )
    def test_values(self, order, expected):
        assert quotient_c1c2(order) == expected

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            quotient_c1c2(0)

    def test_abelian_cover_constant(self):
        assert P1_BUNDLE_OVER_ABELIAN_C1C2 == 0


class TestCheckScenario:
    def test_tetrahedral_row_passes(self):
        row = QuotientScenario(
            group_label="A_4",
            group_order=12,
            profile=parse_profile("6A_2,4A_1"),
            cover=CoverType.K3,
            expected_indices=parse_index_multiset("2^8,3^12"),
            expected_c1c2=Fraction(4),
        )
        assert check_scenario(row).ok

    def test_enriques_row_passes(self):
        row = QuotientScenario(
            group_label="C_5",
            group_order=10,
            profile=parse_profile("2A_4"),
            cover=CoverType.ENRIQUES,
            expected_indices=parse_index_multiset("5^4"),
            expected_c1c2=Fraction(24, 5),
        )
        assert check_scenario(row).ok

    def test_tampered_c1c2_fails_two_checks(self):
        row = QuotientScenario(
            group_label="C_2",
            group_order=2,
            profile=parse_profile("8A_1"),
            cover=CoverType.K3,
            expected_indices=parse_index_multiset("2^16"),
            expected_c1c2=Fraction(23),
        )
        result = check_scenario(row)
        assert not result.ok
        assert result.failed_checks == ("c1c2", "euler")

    def test_tampered_order_fails_ratio_only(self):
        row = QuotientScenario(
            group_label="A_5",
            group_order=59,
            profile=parse_profile("2A_4,3A_2,4A_1"),
            cover=CoverType.K3,
            expected_indices=parse_index_multiset("2^8,3^6,5^4"),
            expected_c1c2=Fraction(4, 5),
        )
        result = check_scenario(row)
        assert result.failed_checks == ("c1c2",)

    def test_all_fixture_rows_pass(self):
        for table in (4, 5):
            for row in table_rows(table):
                result = check_scenario(row)
                assert result.ok, (table, row.group_label, result.failed_checks)


class TestFixtureInvariants:
    def test_k3_rows_multiply_to_48(self):
        for row in table_rows(4):
            assert row.expected_c1c2 * row.group_order == 48

    def test_euler_sums(self):
        for row in table_rows(4):
            assert row.expected_c1c2 + row.expected_indices.weight == 48
        for row in table_rows(5):
            assert row.expected_c1c2 + row.expected_indices.weight == 24

    def test_weights_respect_global_bound(self):
        for table in (4, 5):
            for row in table_rows(table):
                assert row.expected_indices.weight <= 48

    def test_row_counts(self):
        assert len(table_rows(4)) == 15
        assert len(table_rows(5)) == 8


class TestDeriveEnriques:
    def test_full_derivation_matches_fixture(self):
        derived = derive_enriques(table_rows(4))
        expected = table_rows(5)
        assert len(derived) == 8
        assert {row.key() for row in derived} == {row.key() for row in expected}
        # the derived rows agree on the label and the halved columns too
        by_key = {row.key(): row for row in expected}
        for row in derived:
            other = by_key[row.key()]
            assert row.group_label == other.group_label
            assert row.expected_indices == other.expected_indices
            assert row.expected_c1c2 == other.expected_c1c2

    def test_first_row_halves(self):
        source = next(r for r in table_rows(4) if r.group_label == "C_2")
        [derived] = derive_enriques([source])
        assert derived.group_order == 4
        assert derived.profile == parse_profile("4A_1")
        assert derived.expected_indices == parse_index_multiset("2^8")
        assert derived.expected_c1c2 == 12
        assert derived.cover is CoverType.ENRIQUES

    def test_odd_multiplicity_rows_are_excluded(self):
        rows = table_rows(4)
        c7 = next(r for r in rows if r.group_label == "C_7")  # profile 3A_6
        c8 = next(r for r in rows if r.group_label == "C_8")  # profile 2A_7,A_3,A_1
        assert derive_enriques([c7]) == []
        assert derive_enriques([c8]) == []

    def test_rejects_non_k3_input(self):
        with pytest.raises(ValueError):
            derive_enriques(table_rows(5))

    def test_rejects_inconsistent_indices(self):
        row = QuotientScenario(
            group_label="C_2",
            group_order=2,
            profile=parse_profile("8A_1"),
            cover=CoverType.K3,
            expected_indices=parse_index_multiset("4^16"),  # should be 2^16
            expected_c1c2=Fraction(24),
        )
        with pytest.raises(ValueError):
            derive_enriques([row])
