"""Embedded classification-table fixtures.

Four tables are shipped as structured text, one record per line:

* table 1: index multisets with chi = 1 and c1.c2 = 0
  (columns: multiset, Cartier index, c1.c2)
* table 2: index multisets with chi = 1 admitting a basket with integral
  l(2), the "-K not big" configurations (same columns)
* table 4: groups acting on P^1 x K3 with K3-type quotient
  (columns: label, order, Du Val profile of the quotient surface,
  induced index multiset, c1.c2)
* table 5: the Enriques-type rows derived from table 4 (same columns;
  the order column is the full group, twice the symplectic part)

The texts are the comparison targets for the enumeration and quotient
checks; `verify-tables` reproduces every line from first principles.
This module owns those checks' rules: `table_rows` loads any table's
rows, from its shipped text or from an override, `reproduce_table`
re-enumerates tables 1 and 2 and `derive_diff` compares the Enriques rows
derived from table 4 with table 5.  `enumerate` never imports it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .enumeration import (
    C1C2_ZERO, INTEGRAL_L2, EnumerationQuery, enumerate_index_multisets,
)
from .quotient import CoverType, QuotientScenario, parse_profile
from .riemann_roch import Frozen, IndexMultiset, parse_index_multiset, parse_rational


class TableRow(NamedTuple):
    indices: IndexMultiset
    cartier_index: int
    c1c2: Fraction


CHI1_C1C2_ZERO = """\
5^5 5 0
2^3,4,8^2 8 0
2^3,5^2,10 10 0
2^2,3^2,4,12 12 0
2,4^6 4 0
3^4,4^2,6 12 0
3^9 3 0
2^6,4^4 4 0
2^5,3^4,6 6 0
2^11,4^2 4 0
2^16 2 0
"""

CHI1_L2_INTEGRAL = """\
5^2 5 72/5
2,3,6 6 14
2,4^2 4 15
3^3 3 16
7^3 7 24/7
2^4 2 18
2^2,10^2 10 6/5
2,4,8^2 8 3
5^4 5 24/5
2,3,5^2,6 30 22/5
2,4^2,5^2 20 27/5
3^3,5^2 15 32/5
5^5 5 0
2^4,5^2 10 42/5
2^3,4,8^2 8 0
2^3,5^2,10 10 0
2^3,6^3 6 2
2^2,3^2,4,12 12 0
2^2,3^2,6^2 6 4
2^2,3,4^2,6 12 5
2^2,4^4 4 6
2,3^4,6 6 6
2,3^3,4^2 12 7
3^6 3 8
2^5,3,6 6 8
2^5,4^2 4 9
2^4,3^3 6 10
2^8 2 12
2^4,3^3,5^2 30 2/5
3^9 3 0
2^8,5^2 10 12/5
2^6,4^4 4 0
2^5,3^4,6 6 0
2^5,3^3,4^2 12 1
2^4,3^6 6 2
2^9,3,6 6 2
2^9,4^2 4 3
2^8,3^3 6 4
2^12 2 6
2^16 2 0
"""

K3_QUOTIENTS = """\
C_2 2 8A_1 2^16 24
C_3 3 6A_2 3^12 16
D_4 4 12A_1 2^24 12
C_4 4 4A_3,2A_1 2^4,4^8 12
C_5 5 4A_4 5^8 48/5
D_6 6 3A_2,8A_1 2^16,3^6 8
C_6 6 2A_5,2A_2,2A_1 2^4,3^4,6^4 8
C_7 7 3A_6 7^6 48/7
D_8 8 2A_3,9A_1 2^18,4^4 6
C_8 8 2A_7,A_3,A_1 2^2,4^2,8^4 6
D_10 10 2A_4,8A_1 2^16,5^4 24/5
A_4 12 6A_2,4A_1 2^8,3^12 4
D_12 12 A_5,A_2,9A_1 2^18,3^2,6^2 4
S_4 24 2A_3,3A_2,5A_1 2^10,3^6,4^4 2
A_5 60 2A_4,3A_2,4A_1 2^8,3^6,5^4 4/5
"""

ENRIQUES_QUOTIENTS = """\
C_2 4 4A_1 2^8 12
C_3 6 3A_2 3^6 8
D_4 8 6A_1 2^12 6
C_4 8 2A_3,A_1 2^2,4^4 6
C_5 10 2A_4 5^4 24/5
C_6 12 A_5,A_2,A_1 2^2,3^2,6^2 4
D_10 20 A_4,4A_1 2^8,5^2 12/5
A_4 24 3A_2,2A_1 2^4,3^6 2
"""


def _fixture_fields(text: str, columns: int) -> Iterator[list[str]]:
    """The whitespace-separated fields of each line, which must number columns."""
    for line in text.strip().splitlines():
        fields = line.split()
        if len(fields) != columns:
            raise ValueError(f"expected {columns} columns, got {line!r}")
        yield fields


def set_diff(produced: Iterable, expected: Iterable, key: Callable) -> tuple[tuple, tuple]:
    """Items produced but not expected, and expected but not produced, each sorted by key."""
    produced, expected = set(produced), set(expected)
    return tuple(sorted(produced - expected, key=key)), tuple(sorted(expected - produced, key=key))


_FIXTURES = {1: CHI1_C1C2_ZERO, 2: CHI1_L2_INTEGRAL, 4: K3_QUOTIENTS, 5: ENRIQUES_QUOTIENTS}


def table_rows(table: int, text: Optional[str] = None) -> tuple:
    """The rows of table 1, 2, 4 or 5, parsed from text, or from the shipped fixture if it is None.

    Tables 1 and 2 give `TableRow`s, tables 4 and 5 `QuotientScenario`s.
    """
    if table not in _FIXTURES:
        raise ValueError(f"no fixture for table {table}")
    text = _FIXTURES[table] if text is None else text
    if table < 4:
        return tuple(
            TableRow(parse_index_multiset(indices), int(r_x), parse_rational(c1c2))
            for indices, r_x, c1c2 in _fixture_fields(text, 3)
        )
    cover = CoverType.K3 if table == 4 else CoverType.ENRIQUES
    return tuple(
        QuotientScenario(
            group_label=label,
            group_order=int(order),
            profile=parse_profile(profile),
            cover=cover,
            expected_indices=parse_index_multiset(indices),
            expected_c1c2=parse_rational(c1c2),
        )
        for label, order, profile, indices, c1c2 in _fixture_fields(text, 5)
    )


class TableCheck(Frozen):
    """Outcome of re-deriving a classification table from scratch: the `ChernRecord`s,
    the fixture `TableRow`s `missing` from them and the `extra` rows not in the fixture."""

    __slots__ = _fields = ("table", "records", "missing", "extra")

    def __init__(self, table: int, records: tuple, missing: tuple, extra: tuple) -> None:
        self._set(table, records, missing, extra)

    @property
    def ok(self) -> bool:
        return not self.missing and not self.extra


def _row_key(row: TableRow):
    return (row.indices.weight, row.indices.indices())


def reproduce_table(table: int, fixture: Optional[Sequence[TableRow]] = None) -> TableCheck:
    """Re-enumerate table 1 or 2 and diff the result against the fixture."""
    if table == 1:
        flt = C1C2_ZERO
    elif table == 2:
        flt = INTEGRAL_L2
    else:
        raise ValueError(f"reproduce_table supports tables 1 and 2, got {table}")
    if fixture is None:
        fixture = table_rows(table)

    records = enumerate_index_multisets(EnumerationQuery(chi0=1, filter=flt))
    produced = (TableRow(rec.indices, rec.cartier_index, rec.c1c2) for rec in records)
    extra, missing = set_diff(produced, fixture, key=_row_key)
    return TableCheck(table=table, records=tuple(records), missing=missing, extra=extra)


def derive_diff(derived, expected) -> tuple[bool, tuple, tuple]:
    """Whether derived matches expected, then the keys only derived and only expected."""
    extra, missing = set_diff(
        (row.key() for row in derived),
        (row.key() for row in expected),
        # a total order, so the lines never follow the hash-seeded set order
        key=lambda key: (key[0], key[1].groups, key[2].value),
    )
    return not extra and not missing and len(derived) == len(expected), extra, missing
