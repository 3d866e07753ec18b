"""Exact arithmetic in real quadratic fields Q(sqrt(d)), the one module that reads or builds a
``QuadReal``'s coefficients; every exact order test takes its sign from ``_positive``."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt, lcm
from typing import Sequence, Union

from .errors import MixedRadicand, ParseError

RationalLike = Union[int, Fraction]


@cache
def _square_free(n: int) -> tuple[int, int]:
    """Split n >= 0 as m * s**2 with m square-free; return (m, s).

    Trial division takes up to sqrt(n) steps, so each n is factored once
    per process and the split is cached.
    """
    m, s, f = n, 1, 2
    while f * f <= m:
        while m % (f * f) == 0:
            m //= f * f
            s *= f
        f += 1
    return m, s


def _positive(p: int, q: int, d: int) -> bool:
    """True iff p + q*sqrt(d) > 0, where q == 0 or d > 1 is square-free.

    p*p == q*q*d has no solution with q != 0, so the two terms never cancel.
    """
    if q >= 0:
        return p > 0 or (q > 0 and (p >= 0 or q * q * d > p * p))
    return p > 0 and p * p > q * q * d


@dataclass(frozen=True, slots=True)
class QuadReal:
    """Number a + b*sqrt(d) with rational a, b and square-free d >= 0.

    Values are kept in a normal form (b == 0 forces d == 0, d is square-free
    and never 1), so equal values have identical field tuples and dataclass
    equality is value equality.  Construct through :func:`quad`.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self) -> None:
        if not (isinstance(self.a, (int, Fraction)) and isinstance(self.b, (int, Fraction))
                and isinstance(self.d, int)):
            raise TypeError("QuadReal takes int or Fraction coefficients and an int radicand")
        if self.d < 0:
            raise ValueError("radicand must be nonnegative")
        if self.b == 0 and self.d != 0:
            raise ValueError("rational values must carry d == 0")
        if self.b != 0:
            if self.d in (0, 1):
                raise ValueError("non-normalized radicand")
            m, s = _square_free(self.d)
            if s != 1:
                raise ValueError("radicand must be square-free")

    # -- queries ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    # -- arithmetic ------------------------------------------------------

    def _common_d(self, other: "QuadReal") -> int:
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise MixedRadicand(f"sqrt({self.d}) and sqrt({other.d}) cannot mix")

    def __add__(self, other: "QuadReal | RationalLike") -> "QuadReal":
        o = _as_quad(other)
        return _trusted(self.a + o.a, self.b + o.b, self._common_d(o))

    __radd__ = __add__

    def __sub__(self, other: "QuadReal | RationalLike") -> "QuadReal":
        o = _as_quad(other)
        return _trusted(self.a - o.a, self.b - o.b, self._common_d(o))

    def __rsub__(self, other: RationalLike) -> "QuadReal":
        return _as_quad(other) - self

    def __mul__(self, other: "QuadReal | RationalLike") -> "QuadReal":
        o = _as_quad(other)
        d = self._common_d(o)
        return _trusted(self.a * o.a + self.b * o.b * d,
                        self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other: "QuadReal | RationalLike") -> "QuadReal":
        o = _as_quad(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero")
        d = self._common_d(o)
        norm = o.a * o.a - o.b * o.b * d
        return _trusted((self.a * o.a - self.b * o.b * d) / norm,
                        (self.b * o.a - self.a * o.b) / norm, d)

    def __rtruediv__(self, other: RationalLike) -> "QuadReal":
        return _as_quad(other) / self

    def __neg__(self) -> "QuadReal":
        return _trusted(-self.a, -self.b, self.d)

    def __abs__(self) -> "QuadReal":
        return -self if quad_sign(self) < 0 else self

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- order -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadReal):
            return (self.a, self.b, self.d) == (other.a, other.b, other.d)
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        # rational values hash like their Fraction so mixed equality is coherent
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def _compare(self, other: "QuadReal | RationalLike") -> int:
        """Sign of self - other: the coefficient differences times both (positive) denominators."""
        o = _as_quad(other)
        d = self._common_d(o)
        a, b = self.a - o.a, self.b - o.b
        p, q = a.numerator * b.denominator, b.numerator * a.denominator
        return _positive(p, q, d) - _positive(-p, -q, d)

    def __lt__(self, other: "QuadReal | RationalLike") -> bool:
        return self._compare(other) < 0

    def __le__(self, other: "QuadReal | RationalLike") -> bool:
        return self._compare(other) <= 0

    def __gt__(self, other: "QuadReal | RationalLike") -> bool:
        return self._compare(other) > 0

    def __ge__(self, other: "QuadReal | RationalLike") -> bool:
        return self._compare(other) >= 0

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        return format_quad(self)

    def __float__(self) -> float:
        return float(quad_approx(self, 17))


_ZERO = Fraction(0)
_new = object.__new__
# Slot setters write the fields of a frozen instance without its __setattr__.
_set_a, _set_b, _set_d = QuadReal.a.__set__, QuadReal.b.__set__, QuadReal.d.__set__


def _trusted(a: Fraction, b: Fraction, d: int) -> QuadReal:
    """Wrap coefficients that are in normal form once b == 0 forces d to 0.

    Sums, differences, products and quotients of normal operands of one
    radicand meet that condition, and so do ``quad``'s reduced coefficients,
    so their results skip ``Fraction(...)``, the factoring and ``__post_init__``.
    """
    x = _new(QuadReal)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d if b else 0)
    return x


def _as_quad(value: "QuadReal | RationalLike") -> QuadReal:
    if isinstance(value, QuadReal):
        return value
    if isinstance(value, (int, Fraction)):
        return _trusted(Fraction(value), _ZERO, 0)
    raise TypeError(f"cannot interpret {value!r} as a quadratic number")


_Lattice = tuple[int, int, list[tuple[int, int]]]  # (d, D, pairs), each pair (p, q) = (p + q*sqrt(d))/D


def _lattice(values: Sequence[QuadReal], d: int = 0, D: int = 1) -> _Lattice:
    """(d, D, pairs): each value as (p, q) meaning (p + q*sqrt(d))/D; d and D extend the given ones."""
    radicands = list(dict.fromkeys(r for r in (d, *(v.d for v in values)) if r))
    if len(radicands) > 1:
        raise MixedRadicand(f"sqrt({radicands[1]}) and sqrt({radicands[0]}) cannot mix")
    D = lcm(*{D, *(c.denominator for v in values for c in (v.a, v.b))})  # set: 3.11 never reuses 20-tuples
    return (radicands[0] if radicands else 0, D,
            [(v.a.numerator * D // v.a.denominator, v.b.numerator * D // v.b.denominator) for v in values])


def _point(p: int, q: int, D: int, d: int) -> QuadReal:
    """The number (p + q*sqrt(d))/D."""
    return _trusted(Fraction(p, D), Fraction(q, D), d)


def quad(a: RationalLike | Fraction = 0, b: RationalLike | Fraction = 0,
         d: int = 0) -> QuadReal:
    """Build a + b*sqrt(d) in normal form from int or Fraction a, b and an int d."""
    if not all(isinstance(c, (int, Fraction)) for c in (a, b)) or not isinstance(d, int):
        raise TypeError("quad takes int or Fraction coefficients and an int radicand")
    a, b = Fraction(a), Fraction(b)
    if d < 0:
        raise ValueError("radicand must be nonnegative")
    if b == 0 or d == 0:
        return _trusted(a, _ZERO, 0)
    m, s = _square_free(d)
    if m == 1:
        return _trusted(a + b * s, _ZERO, 0)
    return _trusted(a, b * s, m)


def radical(d: int) -> QuadReal:
    """The number sqrt(d)."""
    return quad(0, 1, d)


def quad_sign(x: "QuadReal | RationalLike") -> int:
    """Exact sign of a QuadReal, int or Fraction, decided in integer arithmetic."""
    return _as_quad(x)._compare(0)


def _floor_times(x: QuadReal, m: int) -> int:
    """floor(m * x) for an integer m >= 1; see :func:`quad_floor`."""
    a, b = x.a, x.b
    if not b:
        return a.numerator * m // a.denominator
    den = lcm(a.denominator, b.denominator)
    p = a.numerator * (den // a.denominator) * m
    q = b.numerator * (den // b.denominator) * m
    r = isqrt(q * q * x.d)
    return (p + (r if q > 0 else -r - 1)) // den


def quad_floor(x: "QuadReal | RationalLike") -> int:
    """Largest integer n with n <= x, for a QuadReal, int or Fraction, in integer arithmetic only.

    Write x = (p + q*sqrt(d))/D over a common denominator D.  For q != 0,
    q*sqrt(d) is irrational because d > 1 is square-free, so its floor is
    isqrt(q*q*d) for q > 0 and -isqrt(q*q*d) - 1 for q < 0, and the floor
    of x is (p + that floor) // D with no correction step.
    """
    return _floor_times(_as_quad(x), 1)


def quad_approx(x: "QuadReal | RationalLike", digits: int) -> str:
    """Correctly rounded decimal string of a QuadReal, int or Fraction.

    Exact ties (only rationals have them) round half to even; zero has no
    sign.  Display-only; never feed the result back into exact logic.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    x = _as_quad(x)
    scale = 10 ** digits
    if x.b:
        n = (_floor_times(x, 2 * scale) + 1) // 2
    else:
        n, rem = divmod(x.a.numerator * scale, x.a.denominator)
        if 2 * rem > x.a.denominator or (2 * rem == x.a.denominator and n % 2):
            n += 1
    sign = "-" if n < 0 else ""
    ip, fp = divmod(abs(n), scale)
    return f"{sign}{ip}.{fp:0{digits}d}"


def format_quad(x: "QuadReal | RationalLike") -> str:
    """Canonical text form `p/q` or `p/q+r/sr` (r denotes sqrt(d))."""
    x = _as_quad(x)
    rat = f"{x.a.numerator}/{x.a.denominator}"
    if x.b == 0:
        return rat
    sign = "+" if x.b > 0 else "-"
    mag = abs(x.b)
    return f"{rat}{sign}{mag.numerator}/{mag.denominator}r"


# Digits are ASCII and every digit run is maximal ("12r" is 12r, "1 2r" is
# 1 + 2r); with no split run and no two whitespace quantifiers competing,
# matching is linear in the text length.
_QUAD_RE = re.compile(
    r"""^\s*(?!\s)
        (?P<rat>[+-]?[0-9]+(?![0-9])(?:\s*/\s*[0-9]+(?![0-9]))?)?
        (?:\s*(?:(?P<sign>[+-])\s*)?(?P<coef>[0-9]+(?![0-9])(?:\s*/\s*[0-9]+(?![0-9]))?)\s*r)?
        \s*$""",
    re.VERBOSE,
)
# One integer token; int() alone would also take "_" separators and non-ASCII digits.
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
# Longest digit run a literal may hold; it is also the default limit of int().
_MAX_DIGITS = 4300
# Longest prefix of a value that an error message quotes.
_MAX_QUOTED = 40


def _clipped(text: str) -> str:
    return text if len(text) <= _MAX_QUOTED else text[:_MAX_QUOTED] + "..."


def _quoted(text: str) -> str:
    return repr(text) if len(text) <= _MAX_QUOTED else repr(text[:_MAX_QUOTED]) + "..."


def _integer_token(text: str) -> int:
    """int(text) for text matching _INTEGER_RE with at most _MAX_DIGITS digits, else ValueError."""
    if not _INTEGER_RE.fullmatch(text) or len(text.lstrip("+-")) > _MAX_DIGITS:
        raise ValueError(f"not an integer token: {_quoted(text)}")
    return int(text)


def parse_quad(text: str, d: int = 0) -> QuadReal:
    """Parse the text form of a quadratic number; d comes from context."""
    m = _QUAD_RE.match(text)
    if not m or (m.group("rat") is None and m.group("coef") is None):
        raise ParseError(f"not a quadratic number: {_quoted(text)}")

    def _int(tok: str) -> int:
        try:
            return _integer_token(tok.strip())
        except ValueError:
            raise ParseError(f"integer of more than {_MAX_DIGITS} digits") from None

    def _frac(tok: str) -> Fraction:
        num, _, den = tok.partition("/")
        den = _int(den) if den else 1
        if den == 0:
            raise ParseError(f"zero denominator in {_quoted(text)}")
        return Fraction(_int(num), den)

    a = _frac(m.group("rat")) if m.group("rat") else Fraction(0)
    b = Fraction(0)
    if m.group("coef"):
        if d == 0:
            raise ParseError(f"radical term in {_quoted(text)} but d is 0")
        b = _frac(m.group("coef"))
        if m.group("sign") == "-":
            b = -b
    return quad(a, b, d)
