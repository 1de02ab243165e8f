"""Exact arithmetic for baskets of virtual quotient points on terminal 3-folds.

Every quantity is a `fractions.Fraction`; nothing in this package touches
floating point.  A terminal projective 3-fold carries a basket of virtual
orbifold points (b, r) with gcd(b, r) = 1 and 0 < 2b <= r, each standing for
a cyclic quotient singularity of type 1/r(1, -1, b).  Two classical facts
drive everything downstream:

* Reid's orbifold Riemann-Roch for multiples of the anticanonical class,

      chi(-nK) = n(n+1)(2n+1)/12 * (-K)^3 + (2n+1) * chi(O) - l(n+1),

  where the periodic correction l(n+1) sums jb(r - jb)/(2r) over the basket
  and over j = 1..n, with jb taken as its smallest non-negative residue
  mod r.

* The Euler-characteristic identity

      24 * chi(O) = c1.c2 + sum over local indices of (r - 1/r),

  which lets c1.c2 be read off from the index multiset alone.

Baskets, index multisets and the Du Val profiles of `chern3.quotient` share
one run-length model, `RunMultiset`, and one text scanner, `parse_terms`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from typing import Iterable, Iterator

EMPTY_SYMBOL = "∅"


def check_point(b: int, r: int) -> None:
    """Raise ValueError unless (b, r) is a basket point: ints, r >= 2, 0 < 2b <= r, gcd(b, r) = 1.

    A bool or a float is no int here, even where it equals one.
    """
    if type(b) is not int or type(r) is not int:
        raise ValueError(f"b and r must be ints, got ({b!r},{r!r})")
    if r < 2:
        raise ValueError(f"local index must be >= 2, got r={r}")
    if b < 1:
        raise ValueError(f"local invariant must be positive, got b={b}")
    if 2 * b > r:
        raise ValueError(
            f"point ({b},{r}) violates 2b <= r; "
            "use BasketPoint.normalized to fold b into range"
        )
    if math.gcd(b, r) != 1:
        raise ValueError(f"b and r must be coprime, got ({b},{r})")


@dataclass(frozen=True, slots=True)
class BasketPoint:
    """A virtual orbifold point of type 1/r(1, -1, b)."""

    b: int
    r: int

    def __post_init__(self) -> None:
        check_point(self.b, self.r)

    @classmethod
    def normalized(cls, b: int, r: int) -> "BasketPoint":
        """Build a point from any b coprime to r, folding b -> r - b if needed."""
        if r < 2:
            raise ValueError(f"local index must be >= 2, got r={r}")
        b %= r
        if 2 * b > r:
            b = r - b
        return cls(b, r)

    def __lt__(self, other: "BasketPoint") -> bool:
        """Baskets order their points by (r, b)."""
        return (self.r, self.b) < (other.r, other.b)


@dataclass(frozen=True, slots=True)
class RunMultiset:
    """A multiset stored as (item, multiplicity) runs, strictly ascending by item.

    One pass validates every run and keeps an already canonical tuple of
    tuples as it is; anything else is merged and sorted into that form, so
    equal multisets compare and hash alike.  Subclasses add only empty slots
    and may bound their items below by `_floor`, named `_item` in the error,
    and with `_ints` take only runs of an int item and an int multiplicity.
    """

    _item, _floor, _ints = "item", None, False

    groups: tuple = ()

    def __post_init__(self) -> None:
        runs = self.canonical_runs(self.groups)
        if runs is not self.groups:
            object.__setattr__(self, "groups", runs)

    @classmethod
    def canonical_runs(cls, groups) -> tuple:
        """Validate the runs in one pass and return their canonical form.

        An already canonical tuple of tuples comes back as the same object,
        so `canonical_runs(groups) is groups` says the runs needed no merge.
        With `_ints`, a run whose item or multiplicity is not an int, such
        as (5, 5.0) or (5, True), raises before any merge could hide it.
        """
        keep = type(groups) is tuple
        runs = groups if keep else tuple(groups)
        last, ints = None, cls._ints
        for run in runs:
            item, mult = run
            if ints and (type(item) is not int or type(mult) is not int):
                raise ValueError(f"{cls._item} and multiplicity must be ints, got the run {run!r}")
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1, got {mult}")
            if keep and (type(run) is not tuple or (last is not None and not last < item)):
                keep = False
            last = item
        if not keep:
            merged: dict = {}
            for item, mult in runs:
                merged[item] = merged.get(item, 0) + mult
            runs = tuple(sorted(merged.items()))
        # the runs ascend, so the first item is the smallest
        if cls._floor is not None and runs and runs[0][0] < cls._floor:
            raise ValueError(f"{cls._item} must be >= {cls._floor}, got {runs[0][0]}")
        return runs

    @property
    def size(self) -> int:
        return sum(mult for _, mult in self.groups)


class Basket(RunMultiset):
    """Multiset of basket points as (point, multiplicity) runs, ascending by (r, b)."""

    __slots__ = ()

    @classmethod
    def from_points(cls, points: Iterable[BasketPoint]) -> "Basket":
        return cls(tuple((p, 1) for p in points))

    def index_multiset(self) -> "IndexMultiset":
        """Forget the b's, keeping the multiset of local indices."""
        return IndexMultiset(tuple((p.r, mult) for p, mult in self.groups))


class IndexMultiset(RunMultiset):
    """Multiset of local indices r >= 2, stored as (r, multiplicity) runs."""

    __slots__ = ()
    _item, _floor, _ints = "local index", 2, True

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "IndexMultiset":
        return cls(tuple((r, 1) for r in indices))

    @property
    def weight(self) -> Fraction:
        """Sum of (r - 1/r) over the multiset, exactly."""
        lcm = cartier_index(self)
        return Fraction(self.scaled_weight(lcm), lcm)

    def scaled_weight(self, scale: int) -> int:
        """The weight times `scale`, which every index must divide."""
        return sum(mult * (r * r - 1) * (scale // r) for r, mult in self.groups)

    def indices(self) -> tuple[int, ...]:
        """The indices expanded with multiplicity, ascending."""
        return tuple(r for r, mult in self.groups for _ in range(mult))


@dataclass(frozen=True, slots=True)
class ChernContext:
    """chi(O_X) together with the anticanonical self-intersection (-K)^3.

    Neither value is checked for geometric realizability; the context is
    just the pair of inputs Riemann-Roch needs besides the basket.
    """

    chi0: int
    anticanonical_cube: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "anticanonical_cube", Fraction(self.anticanonical_cube)
        )


def residue(j: int, b: int, r: int) -> int:
    """Smallest non-negative residue of j*b mod r."""
    return (j * b) % r


def point_correction(point: BasketPoint, m: int) -> Fraction:
    """Single-point correction sum_{j=1}^{m-1} jb(r - jb) / (2r).

    The empty sum (m = 1) is 0.  Each summand lies in [0, r/8].
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    b, r = point.b, point.r
    total = 0
    for j in range(1, m):
        t = (j * b) % r
        total += t * (r - t)
    return Fraction(total, 2 * r)


def l_value(basket: Basket, m: int) -> Fraction:
    """Reid's correction term l(m), summed over the basket with multiplicity."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return sum(
        (mult * point_correction(point, m) for point, mult in basket.groups),
        Fraction(0),
    )


def _scaled_l(basket: Basket) -> tuple[int, Iterator[int]]:
    """2 r_X and the numerators of l(2), l(3), ... over it, one per j.

    r_X is the lcm of the basket's indices, so 2 r_X is a common denominator
    of every summand t(r - t)/(2r); the numerators are the running integer
    sums over j = 1, 2, ..., endless.
    """
    r_x = math.lcm(*(point.r for point, _ in basket.groups))
    terms = [(point.b, point.r, mult * (r_x // point.r)) for point, mult in basket.groups]

    def sums() -> Iterator[int]:
        total = 0
        for j in count(1):
            for b, r, scale in terms:
                t = j * b % r
                total += t * (r - t) * scale
            yield total

    return 2 * r_x, sums()


def _riemann_roch(ctx: ChernContext, n: int, l: Fraction) -> Fraction:
    """chi(-nK) from l(n + 1): the one place the formula is written."""
    polynomial = Fraction(n * (n + 1) * (2 * n + 1), 12) * ctx.anticanonical_cube
    return polynomial + (2 * n + 1) * ctx.chi0 - l


def chi_minus_nk(basket: Basket, ctx: ChernContext, n: int) -> Fraction:
    """chi(-nK) by orbifold Riemann-Roch; n = 0 returns chi(O) exactly."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _riemann_roch(ctx, n, l_value(basket, n + 1))


def chi_series(
    basket: Basket, ctx: ChernContext, n_max: int
) -> Iterator[tuple[Fraction, Fraction]]:
    """(l(n + 1), chi(-nK)) for n = 0..n_max, as `l_value` and `chi_minus_nk` give them.

    One pass over j carries l as a running sum, so the series costs
    O(n_max) per basket point where n_max separate calls would cost
    O(n_max^2).  n_max < 0 raises at the call, as n < 0 does for `chi_minus_nk`.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    mod, sums = _scaled_l(basket)
    ls = (Fraction(total, mod) for total in chain((0,), sums))
    return ((l, _riemann_roch(ctx, n, l)) for n, l in zip(range(n_max + 1), ls))


def c1c2_from_indices(indices: IndexMultiset, chi0: int) -> Fraction:
    """c1.c2 = 24*chi(O) - weight; negative values mean inconsistent inputs."""
    return 24 * chi0 - indices.weight


def cartier_index(indices: IndexMultiset) -> int:
    """lcm of the local indices; 1 for the empty multiset."""
    return math.lcm(*(r for r, _ in indices.groups))


# ---------------------------------------------------------------------------
# Canonical text forms, shared with the CLI.
#
#   rational:       p or p/q, reduced, q > 0 (str() of a Fraction)
#   index multiset: r or r^k terms, ascending, e.g. 2^3,4,7,9
#   basket:         (b,r) or (b,r)^k terms, ascending by (r, b)
#   profile:        A_n or kA_n terms, ascending by n (quotient.py)
#
# Each multiset form prints its runs as comma-separated terms, and the one
# scanner `parse_terms` reads all three back.  An empty multiset, basket or
# profile prints as the empty-set sign.
# ---------------------------------------------------------------------------

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")
_INDEX_TERM_RE = re.compile(r"(\d+)(?:\^(\d+))?")
_BASKET_TERM_RE = re.compile(r"\((\d+),(\d+)\)(?:\^(\d+))?")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q'; inverse of str() on a Fraction."""
    m = _RATIONAL_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"malformed rational {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def _parse_exponent(raw: str | None, term: str) -> int:
    if raw is None:
        return 1
    mult = int(raw)
    if mult < 2:
        raise ValueError(f"exponent must be >= 2 in term {term!r}")
    return mult


def parse_terms(text: str, term_re: re.Pattern) -> list[re.Match]:
    """Match `term_re` terms joined by single commas; spaces are ignored.

    '' and the empty-set sign hold no terms; a stray comma or trailing text raises.
    """
    s = text.replace(" ", "")
    if s in ("", EMPTY_SYMBOL):
        return []
    terms, pos = [], 0
    while pos <= len(s):
        m = term_re.match(s, pos)
        if m is None:
            raise ValueError(f"malformed term at {s[pos:]!r} in {text!r}")
        terms.append(m)
        pos = m.end()
        if pos < len(s) and s[pos] != ",":
            raise ValueError(f"expected ',' at {s[pos:]!r} in {text!r}")
        pos += 1
    return terms


def parse_index_multiset(text: str) -> IndexMultiset:
    """Parse 'r' / 'r^k' terms, e.g. '2^3,4,7,9'."""
    return IndexMultiset(
        (int(m[1]), _parse_exponent(m[2], m[0])) for m in parse_terms(text, _INDEX_TERM_RE)
    )


def format_index_multiset(indices: IndexMultiset) -> str:
    if not indices.groups:
        return EMPTY_SYMBOL
    return ",".join(f"{r}^{k}" if k > 1 else str(r) for r, k in indices.groups)


def parse_basket(text: str) -> Basket:
    """Parse '(b,r)' / '(b,r)^k' terms; point invariants are enforced."""
    return Basket(
        (BasketPoint(int(m[1]), int(m[2])), _parse_exponent(m[3], m[0]))
        for m in parse_terms(text, _BASKET_TERM_RE)
    )


def format_basket(basket: Basket) -> str:
    if not basket.groups:
        return EMPTY_SYMBOL
    return ",".join(
        f"({p.b},{p.r})^{k}" if k > 1 else f"({p.b},{p.r})"
        for p, k in basket.groups
    )
