"""Value semantics of the package's ten value classes, all built on `Frozen`.

Each class is equal only to values of its own class, hashes equal values
alike, refuses to set or delete a field, prints the repr text pinned here,
survives a pickle and a deep copy (rebuilt through `__init__`, so its
checks run again) and takes its fields by keyword, with Python's own
`TypeError` for a missing or an unknown argument.
"""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from chern3 import (
    ALL,
    INTEGRAL_L2,
    Basket,
    BasketPoint,
    ChernContext,
    ChernRecord,
    CoverType,
    EnumerationQuery,
    IndexMultiset,
    QuotientScenario,
    RecordFilter,
    SingularityProfile,
    c1c2_in_range,
    chi_minus_nk,
    enumerate_index_multisets,
    parse_basket,
)
from chern3.quotient import Finding, ScenarioCheck
from chern3.riemann_roch import Frozen, RunMultiset
from chern3.tables import TableCheck

SCENARIO = dict(
    group_label="C_2", group_order=2, profile=SingularityProfile(((1, 8),)), cover=CoverType.K3,
    expected_indices=IndexMultiset(((2, 16),)), expected_c1c2=Fraction(24),
)
FINDING = dict(check="c1c2", passed=True, expected="24", actual="48/2 = 24")

# (class, keyword fields, the repr text the value prints)
VALUES = [
    (BasketPoint, dict(b=1, r=2), "BasketPoint(b=1, r=2)"),
    (RunMultiset, dict(groups=(("a", 1),)), "RunMultiset(groups=(('a', 1),))"),
    (
        Basket,
        dict(groups=((BasketPoint(2, 5), 1), (BasketPoint(1, 2), 3))),
        "Basket(groups=((BasketPoint(b=1, r=2), 3), (BasketPoint(b=2, r=5), 1)))",
    ),
    (IndexMultiset, dict(groups=((5, 1), (2, 3))), "IndexMultiset(groups=((2, 3), (5, 1)))"),
    (SingularityProfile, dict(groups=((1, 2),)), "SingularityProfile(groups=((1, 2),))"),
    (
        ChernContext,
        dict(chi0=1, anticanonical_cube=Fraction(1, 2)),
        "ChernContext(chi0=1, anticanonical_cube=Fraction(1, 2))",
    ),
    (
        RecordFilter,
        dict(kind="c1c2-range", lo=Fraction(0), hi=Fraction(1, 2)),
        "RecordFilter(kind='c1c2-range', lo=Fraction(0, 1), hi=Fraction(1, 2))",
    ),
    (
        EnumerationQuery,
        dict(chi0=1, filter=INTEGRAL_L2, include_empty=True, allow_any_chi=False),
        "EnumerationQuery(chi0=1, filter=RecordFilter(kind='l2-integral', lo=None, hi=None), "
        "include_empty=True, allow_any_chi=False)",
    ),
    (
        ChernRecord,
        dict(indices=IndexMultiset(((2, 4),)), chi0=1, c1c2=Fraction(18), cartier_index=2,
             witness=parse_basket("(1,2)^4")),
        "ChernRecord(indices=IndexMultiset(groups=((2, 4),)), chi0=1, c1c2=Fraction(18, 1), "
        "cartier_index=2, witness=Basket(groups=((BasketPoint(b=1, r=2), 4),)))",
    ),
    (
        QuotientScenario,
        SCENARIO,
        "QuotientScenario(group_label='C_2', group_order=2, "
        "profile=SingularityProfile(groups=((1, 8),)), cover=<CoverType.K3: 'K3'>, "
        "expected_indices=IndexMultiset(groups=((2, 16),)), expected_c1c2=Fraction(24, 1))",
    ),
    (Finding, FINDING, "Finding(check='c1c2', passed=True, expected='24', actual='48/2 = 24')"),
    (
        ScenarioCheck,
        dict(scenario=QuotientScenario(**SCENARIO), findings=(Finding(**FINDING),)),
        "ScenarioCheck(scenario=QuotientScenario(group_label='C_2', group_order=2, "
        "profile=SingularityProfile(groups=((1, 8),)), cover=<CoverType.K3: 'K3'>, "
        "expected_indices=IndexMultiset(groups=((2, 16),)), expected_c1c2=Fraction(24, 1)), "
        "findings=(Finding(check='c1c2', passed=True, expected='24', actual='48/2 = 24'),))",
    ),
    (
        TableCheck,
        dict(table=1, records=(), missing=(), extra=()),
        "TableCheck(table=1, records=(), missing=(), extra=())",
    ),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.fixture(params=VALUES, ids=IDS)
def value(request):
    cls, fields, text = request.param
    return cls, fields, text


class TestFrozenValues:
    def test_every_value_class_is_frozen(self, value):
        cls, fields, _ = value
        assert issubclass(cls, Frozen)
        assert cls._fields == tuple(fields)

    def test_repr_text(self, value):
        cls, fields, text = value
        assert repr(cls(**fields)) == text

    def test_equal_values_hash_alike(self, value):
        cls, fields, _ = value
        a, b = cls(**fields), cls(**fields)
        assert a == b and not a != b
        assert a is not b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_fields_are_neither_set_nor_deleted(self, value):
        cls, fields, _ = value
        obj = cls(**fields)
        for name in fields:
            before = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, before)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            assert getattr(obj, name) is before
        with pytest.raises(AttributeError):
            obj.no_such_field = 1

    def test_pickle_and_copies_round_trip(self, value):
        cls, fields, _ = value
        obj = cls(**fields)
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(twin) is cls and twin == obj and hash(twin) == hash(obj)
            assert repr(twin) == repr(obj)

    def test_keyword_and_positional_construction_agree(self, value):
        cls, fields, _ = value
        assert cls(**fields) == cls(*fields.values())

    def test_missing_and_unknown_arguments_raise_type_error(self, value):
        cls, fields, _ = value
        params = inspect.signature(cls).parameters.values()
        for name in [p.name for p in params if p.default is p.empty]:
            with pytest.raises(TypeError, match=name):
                cls(**{k: v for k, v in fields.items() if k != name})
        with pytest.raises(TypeError):
            cls(**fields, no_such_field=1)
        with pytest.raises(TypeError):
            cls(*fields.values(), None)


class TestClassExactEquality:
    GROUPS = ((2, 3),)

    def test_run_multisets_of_two_classes_differ(self):
        g = self.GROUPS
        assert IndexMultiset(g) != Basket(g)
        assert IndexMultiset(g) != SingularityProfile(g)
        assert IndexMultiset(g) != RunMultiset(g)
        assert IndexMultiset(g) != (g,)
        assert IndexMultiset(g) != g
        assert len({IndexMultiset(g), SingularityProfile(g), Basket(g), RunMultiset(g)}) == 4

    def test_values_differ_from_their_fields_as_a_tuple(self):
        assert BasketPoint(1, 2) != (1, 2)
        assert ChernContext(1) != (1, Fraction(0))
        assert RecordFilter("all") != ("all", None, None)

    def test_unequal_fields_differ(self):
        assert BasketPoint(1, 3) != BasketPoint(1, 5)
        assert ChernContext(1) != ChernContext(2)
        assert EnumerationQuery(1) != EnumerationQuery(1, INTEGRAL_L2)

    def test_basket_points_sort_by_r_then_b(self):
        points = [BasketPoint(2, 5), BasketPoint(1, 7), BasketPoint(1, 2), BasketPoint(1, 5),
                  BasketPoint(3, 7)]
        assert [(p.b, p.r) for p in sorted(points)] == [(1, 2), (1, 5), (2, 5), (1, 7), (3, 7)]
        # the order is (r, b), so the point with the larger b but smaller r comes first
        assert BasketPoint(2, 5) < BasketPoint(1, 7)


class TestRecordKey:
    FIELDS = VALUES[IDS.index("ChernRecord")][1]

    def test_the_key_fields_fix_the_rest(self):
        # a record's c1.c2 and Cartier index follow from its indices and chi0,
        # so its key leaves them out and no two records differ in them alone
        rec = ChernRecord(**self.FIELDS)
        assert ChernRecord._key(rec) == (rec.indices, rec.chi0, rec.witness)
        with pytest.raises(ValueError):
            ChernRecord(**{**self.FIELDS, "c1c2": Fraction(17)})
        with pytest.raises(ValueError):
            ChernRecord(**{**self.FIELDS, "cartier_index": 4})

    def test_records_differ_in_a_key_field(self):
        rec = ChernRecord(**self.FIELDS)
        assert rec != ChernRecord(**{**self.FIELDS, "witness": None})
        assert rec != ChernRecord(**{**self.FIELDS, "chi0": 2, "c1c2": Fraction(42)})
        records = enumerate_index_multisets(EnumerationQuery(chi0=1))
        assert len(set(records)) == len(records)
        assert set(records) == set(enumerate_index_multisets(EnumerationQuery(chi0=1)))


class TestChecksRunAgain:
    def test_unpickling_rechecks_the_fields(self):
        # a point built past its checks, which `__init__` would refuse
        bad = object.__new__(BasketPoint)
        BasketPoint.b.__set__(bad, 2)
        BasketPoint.r.__set__(bad, 4)
        data = pickle.dumps(bad)
        with pytest.raises(ValueError, match="coprime"):
            pickle.loads(data)
        with pytest.raises(ValueError, match="coprime"):
            copy.deepcopy(bad)

    def test_a_non_canonical_pickle_comes_back_canonical(self):
        bad = object.__new__(IndexMultiset)
        IndexMultiset.groups.__set__(bad, ((5, 1), (2, 1), (2, 2)))
        assert pickle.loads(pickle.dumps(bad)).groups == ((2, 3), (5, 1))


class TestExactInputs:
    @pytest.mark.parametrize("chi0", [1.0, 1.5, True, False, Fraction(1), "1"])
    def test_chi0_must_be_an_int(self, chi0):
        with pytest.raises(ValueError, match="chi0 must be an int"):
            EnumerationQuery(chi0=chi0)
        with pytest.raises(ValueError, match="chi0 must be an int"):
            ChernContext(chi0)

    def test_a_float_chi0_never_reaches_riemann_roch(self):
        with pytest.raises(ValueError, match="chi0 must be an int"):
            chi_minus_nk(parse_basket("(1,2)^3"), ChernContext(1.5), 1)
        assert chi_minus_nk(parse_basket("(1,2)^3"), ChernContext(1), 1) == Fraction(9, 4)

    def test_int_chi0_is_kept(self):
        assert EnumerationQuery(chi0=0).chi0 == 0
        assert type(ChernContext(2).chi0) is int
        with pytest.raises(ValueError, match="non-negative"):
            EnumerationQuery(chi0=-1)

    def test_records_carry_an_int_chi0(self):
        records = enumerate_index_multisets(EnumerationQuery(chi0=1, filter=INTEGRAL_L2))
        assert len(records) == 40
        assert all(type(rec.chi0) is int for rec in records)

    @pytest.mark.parametrize("lo, hi", [(0, 1), (Fraction(-1, 2), Fraction(4, 5)), (0, Fraction(1, 3))])
    def test_range_bounds_are_kept_as_fractions(self, lo, hi):
        for flt in (RecordFilter("c1c2-range", lo, hi), c1c2_in_range(lo, hi)):
            assert type(flt.lo) is Fraction and type(flt.hi) is Fraction
            assert (flt.lo, flt.hi) == (lo, hi)
        assert RecordFilter("c1c2-range", lo, hi) == c1c2_in_range(Fraction(lo), Fraction(hi))

    @pytest.mark.parametrize("lo, hi", [(0.5, 1), (0, 1.0), (True, 1), (0, False), ("0", 1)])
    def test_inexact_range_bounds_raise(self, lo, hi):
        with pytest.raises(ValueError, match="must be ints or Fractions"):
            RecordFilter("c1c2-range", lo, hi)
        with pytest.raises(ValueError, match="must be ints or Fractions"):
            c1c2_in_range(lo, hi)

    def test_range_bounds_are_still_checked(self):
        with pytest.raises(ValueError, match="needs both bounds"):
            RecordFilter("c1c2-range", 0)
        with pytest.raises(ValueError, match="empty range"):
            c1c2_in_range(1, 0)
        with pytest.raises(ValueError, match="only meaningful"):
            RecordFilter("all", 0, 1)
        assert RecordFilter("all") == ALL
