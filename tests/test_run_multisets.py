"""The run-length form shared by index multisets, baskets and Du Val profiles."""

from collections import Counter
from math import gcd

import pytest
from hypothesis import given, strategies as st

from chern3 import (
    Basket,
    BasketPoint,
    IndexMultiset,
    SingularityProfile,
    format_basket,
    format_index_multiset,
    format_profile,
    parse_basket,
    parse_index_multiset,
    parse_profile,
)

points = st.integers(2, 12).flatmap(
    lambda r: st.sampled_from(
        [BasketPoint(b, r) for b in range(1, r // 2 + 1) if gcd(b, r) == 1]
    )
)

# (type, items it accepts, the oracle's sort key, an item below its bound for k <= 0)
RUN_TYPES = {
    IndexMultiset: (st.integers(2, 12), lambda r: r, lambda k: k + 1),
    SingularityProfile: (st.integers(1, 12), lambda n: n, lambda k: k),
    # basket points validate themselves
    Basket: (points, lambda p: (p.r, p.b), lambda k: BasketPoint(1, k + 1)),
}

# (parse, format, empty value) per text form
PARSERS = {
    "index": (parse_index_multiset, format_index_multiset, IndexMultiset()),
    "basket": (parse_basket, format_basket, Basket()),
    "profile": (parse_profile, format_profile, SingularityProfile()),
}


@st.composite
def run_inputs(draw):
    """A type with runs of it, unsorted and repeated, as tuples or lists."""
    cls = draw(st.sampled_from(list(RUN_TYPES)))
    items, key, _ = RUN_TYPES[cls]
    runs = draw(st.lists(st.tuples(items, st.integers(1, 4)), max_size=6))
    if draw(st.booleans()):  # sometimes the canonical form itself
        merged = Counter()
        for item, mult in runs:
            merged[item] += mult
        runs = sorted(merged.items(), key=lambda run: key(run[0]))
    outer = draw(st.sampled_from([tuple, list]))
    inner = draw(st.sampled_from([tuple, list]))
    return cls, outer(inner(run) for run in runs)


def naive_canonical(cls, runs):
    merged = Counter()
    for item, mult in runs:
        merged[item] += mult
    key = RUN_TYPES[cls][1]
    return tuple(sorted(merged.items(), key=lambda run: key(run[0])))


class TestCanonicaliser:
    @given(run_inputs())
    def test_matches_naive_merge_and_sort(self, case):
        cls, runs = case
        multiset = cls(runs)
        expected = naive_canonical(cls, runs)
        assert multiset.groups == expected
        assert type(multiset.groups) is tuple
        assert all(type(run) is tuple for run in multiset.groups)
        hash(multiset)
        assert multiset.size == sum(mult for _, mult in runs)
        # an already canonical tuple of tuples is kept, not rebuilt
        if runs == expected:
            assert multiset.groups is runs
        assert cls(expected).groups is expected

    @given(run_inputs(), st.integers(-2, 0), st.data())
    def test_multiplicity_below_one_raises(self, case, mult, data):
        cls, runs = case
        items = RUN_TYPES[cls][0]
        bad = (data.draw(items), mult)
        at = data.draw(st.integers(0, len(runs)))
        with pytest.raises(ValueError):
            cls(tuple(runs[:at]) + (bad,) + tuple(runs[at:]))

    @given(run_inputs(), st.integers(-2, 0), st.data())
    def test_item_below_bound_raises(self, case, k, data):
        cls, runs = case
        below_bound = RUN_TYPES[cls][2]
        at = data.draw(st.integers(0, len(runs)))
        with pytest.raises(ValueError):
            cls(tuple(runs[:at]) + ((below_bound(k), 1),) + tuple(runs[at:]))


class TestGrammar:
    @pytest.mark.parametrize(
        "form,text",
        [
            ("index", "2,"), ("basket", "(1,2),"), ("profile", "A_1,"),
            ("index", ",2"), ("basket", ",(1,2)"), ("profile", ",A_1"),
            ("index", "2^3x"), ("basket", "(1,2)x"), ("profile", "2A_1x"),
            ("index", "2,,3"), ("basket", "(1,2),,(1,3)"), ("profile", "A_1,,A_2"),
            ("index", ","), ("basket", ","), ("profile", ","),
        ],
    )
    def test_rejects_stray_commas_and_trailing_text(self, form, text):
        parse = PARSERS[form][0]
        with pytest.raises(ValueError):
            parse(text)

    @pytest.mark.parametrize(
        "form,text,expected",
        [
            ("index", " 2 ^ 3 , 4", "2^3,4"),
            ("basket", " (1, 2) ^ 2 , (2,7) ", "(1,2)^2,(2,7)"),
            ("profile", " 2A_3 , A_1 ", "A_1,2A_3"),
            ("profile", "1A_1", "A_1"),
        ],
    )
    def test_accepts_spaces_and_a_count_of_one(self, form, text, expected):
        parse, fmt, _ = PARSERS[form]
        assert fmt(parse(text)) == expected

    @pytest.mark.parametrize("form", list(PARSERS))
    @pytest.mark.parametrize("text", ["", " ", "∅", " ∅ "])
    def test_empty_forms(self, form, text):
        parse, _, empty = PARSERS[form]
        assert parse(text) == empty
