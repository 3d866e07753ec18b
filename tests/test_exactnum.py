import re
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from ietlab import (
    MixedRadicand,
    ParseError,
    QuadReal,
    format_quad,
    parse_quad,
    quad,
    quad_approx,
    quad_floor,
    quad_sign,
    radical,
)
from ietlab.exactnum import _QUAD_RE, _positive, _square_free
from helpers import _sign, to_mp

small_fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)


def quads(d):
    return st.builds(lambda a, b: quad(a, b, d), small_fractions, small_fractions)


# Radicands for the differential tests: 8 and 12 are not square-free, and
# 1000003 is a 7-digit prime.
RADICANDS = (2, 5, 8, 12, 1000003)
any_field_quads = st.sampled_from(RADICANDS).flatmap(quads)


def test_normal_form():
    assert quad(1, 0, 2) == quad(1)
    assert quad(1, 0, 2).d == 0
    # radicand reduced to its square-free part
    x = quad(Fraction(1, 2), Fraction(1, 3), 8)
    assert (x.a, x.b, x.d) == (Fraction(1, 2), Fraction(2, 3), 2)
    # perfect-square radicand collapses to a rational
    assert quad(0, 2, 9) == quad(6)
    assert radical(2).d == 2


def test_mixed_radicand_rejected():
    with pytest.raises(MixedRadicand):
        radical(2) + radical(3)
    with pytest.raises(MixedRadicand):
        radical(2) * radical(5)


def test_rational_queries():
    assert quad(Fraction(2, 3)).is_rational
    assert quad(Fraction(2, 3)).as_fraction() == Fraction(2, 3)
    assert not radical(2).is_rational
    with pytest.raises(ValueError):
        radical(2).as_fraction()


@given(quads(2), quads(2), quads(2))
def test_field_identities(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x + y == y + x
    assert (x - y) + y == x
    assert x * y == y * x


@given(quads(2))
def test_multiplicative_inverse(x):
    if quad_sign(x) != 0:
        assert x * (1 / x) == quad(1)


@given(quads(2))
def test_sign_matches_mpmath(x):
    approx = to_mp(x)
    sign = quad_sign(x)
    if sign == 0:
        assert x == quad(0)
    else:
        assert (approx > 0) == (sign > 0)


@given(quads(2), quads(2))
def test_order_matches_mpmath(x, y):
    if x != y:
        assert (x < y) == (to_mp(x) < to_mp(y))


@given(any_field_quads)
def test_floor_matches_mpmath(x):
    assert quad_floor(x) == int(mpmath.floor(to_mp(x)))


def test_floor_examples():
    assert quad_floor(radical(2)) == 1
    assert quad_floor(-radical(2)) == -2
    assert quad_floor(quad(3)) == 3
    assert quad_floor(quad(Fraction(-1, 2))) == -1


def test_approx_rounds_ties_to_even():
    assert quad_approx(quad(Fraction(1, 8)), 2) == "0.12"
    assert quad_approx(quad(Fraction(3, 8)), 2) == "0.38"
    assert quad_approx(quad(Fraction(-1, 8)), 2) == "-0.12"
    assert quad_approx(radical(2), 10) == "1.4142135624"
    # plain ints and Fractions are accepted; nothing that rounds to zero prints a sign
    assert quad_approx(Fraction(-5, 1000), 2) == "0.00"
    assert quad_approx(Fraction(-15, 1000), 2) == "-0.02"
    assert quad_approx(-3, 1) == "-3.0"
    assert quad_approx(radical(2) - Fraction(14142, 10000), 2) == "0.00"
    assert quad_approx(Fraction(14142, 10000) - radical(2), 2) == "0.00"


# Values with a tie at 1 to 4 fractional digits, of either sign.
decimal_ties = st.builds(lambda n, k: Fraction(2 * n + 1, 2 * 10 ** k),
                         st.integers(-500, 500), st.integers(1, 4))


@given(st.one_of(small_fractions, decimal_ties, st.integers(-99, 99)),
       st.integers(min_value=1, max_value=6))
def test_approx_of_rationals_rounds_half_to_even(f, digits):
    printed = quad_approx(f, digits)
    assert Fraction(printed) == round(Fraction(f), digits)  # Fraction rounds half to even
    if Fraction(printed) == 0:
        assert printed == "0." + "0" * digits


@given(any_field_quads, st.integers(min_value=1, max_value=25))
@example(quad(Fraction(1, 4), 0, 2), 1)  # a tie: the error is exactly half an ulp
def test_approx_within_half_ulp(x, digits):
    # The rational part of the error is taken exactly, so a tie, whose error
    # sits on the bound, is not lost to binary rounding of the printed decimal.
    rational_error = Fraction(quad_approx(x, digits)) - x.a
    half_ulp = Fraction(1, 2 * 10 ** digits)
    if not x.b:
        assert abs(rational_error) <= half_ulp
    else:
        error = mpmath.mpf(rational_error.numerator) / rational_error.denominator \
            - to_mp(quad(0, x.b, x.d))
        assert abs(error) <= mpmath.mpf(half_ulp.numerator) / half_ulp.denominator


@given(quads(2))
def test_format_parse_round_trip(x):
    assert parse_quad(format_quad(x), 2) == x


def test_parse_forms():
    assert parse_quad("5") == quad(5)
    assert parse_quad("-3/4") == quad(Fraction(-3, 4))
    assert parse_quad("2-1r", 8) == quad(2, -1, 8)
    assert format_quad(parse_quad("2-1r", 8)) == "2/1-2/1r"
    assert parse_quad("-1/1+1/1r", 2) == radical(2) - 1
    # digit runs are maximal: a run written straight before r is one coefficient
    assert parse_quad("12r", 2) == quad(0, 12, 2)
    assert parse_quad("-12r", 2) == quad(0, -12, 2)
    assert parse_quad("12/5r", 2) == quad(0, Fraction(12, 5), 2)
    assert parse_quad("123/4r", 2) == quad(0, Fraction(123, 4), 2)
    assert parse_quad("1 2r", 2) == quad(1, 2, 2)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_quad("1r")  # radical with no radicand in scope
    with pytest.raises(ParseError):
        parse_quad("oops", 2)
    with pytest.raises(ParseError):
        parse_quad("", 2)
    with pytest.raises(ParseError, match="more than 4300 digits"):
        parse_quad("1" * 5000, 2)
    with pytest.raises(ParseError, match="more than 4300 digits"):
        parse_quad("1/" + "7" * 5000, 2)
    assert parse_quad("-" + "1" * 4300) == quad(-int("1" * 4300))
    with pytest.raises(ParseError):
        parse_quad("1" + " " * 4000 + "x", 2)
    with pytest.raises(ParseError):
        parse_quad("1/11/2r", 2)  # a denominator run straight into a radical term
    for text in ("\u0661\u0662", "\uff11\uff12", "1_0"):  # digits are ASCII only
        with pytest.raises(ParseError, match="not a quadratic number"):
            parse_quad(text, 2)


# The pattern parse_quad matched with before its matching was made linear in
# the length of the text, with every digit run made maximal; it is kept as the
# reference for what parses and how.
BACKTRACKING_QUAD_RE = re.compile(
    r"""^\s*
        (?P<rat>[+-]?\d+(?!\d)(?:\s*/\s*\d+(?!\d))?)?
        \s*
        (?:(?P<sign>[+-])?\s*(?P<coef>\d+(?!\d)(?:\s*/\s*\d+(?!\d))?)\s*r)?
        \s*$""",
    re.VERBOSE,
)


def _reference_fraction(token):
    num, _, den = token.replace(" ", "").partition("/")
    return Fraction(int(num), int(den or 1))


@settings(max_examples=500)
@given(st.text(alphabet=" 0123456789/+-rx", max_size=14))
def test_parse_pattern_matches_backtracking_reference(text):
    old, new = BACKTRACKING_QUAD_RE.match(text), _QUAD_RE.match(text)
    assert (old is None) == (new is None)
    if old is None or (old["rat"] is None and old["coef"] is None):
        with pytest.raises(ParseError):
            parse_quad(text, 2)
        return
    assert new.group("rat", "sign", "coef") == old.group("rat", "sign", "coef")
    try:
        a = _reference_fraction(old["rat"]) if old["rat"] else 0
        b = _reference_fraction(old["coef"]) if old["coef"] else 0
    except ZeroDivisionError:
        with pytest.raises(ParseError, match="zero denominator"):
            parse_quad(text, 2)
        return
    assert parse_quad(text, 2) == quad(a, -b if old["sign"] == "-" else b, 2)


def test_text_round_trip_survives_decimal():
    # the exact text form is the canonical cell; the decimal is advisory
    x = radical(2) - 1
    assert Decimal(quad_approx(x, 12)) == Decimal("0.414213562373")


def test_hash_and_equality():
    assert hash(quad(1, 0, 2)) == hash(quad(1))
    assert len({radical(2), radical(2), quad(1)}) == 2


def test_comparison_with_ints_and_fractions():
    assert radical(2) > 1
    assert radical(2) < Fraction(3, 2)
    assert quad(Fraction(1, 2)) == Fraction(1, 2)


def test_quadreal_is_immutable():
    with pytest.raises(Exception):
        radical(2).a = Fraction(0)


@st.composite
def same_field_operands(draw):
    d = draw(st.sampled_from(RADICANDS))
    x = draw(quads(d))
    y = draw(st.one_of(quads(d), small_fractions, st.integers(-5, 5)))
    return x, y


def assert_normal(r):
    assert type(r.a) is Fraction and type(r.b) is Fraction and type(r.d) is int
    renormalized = quad(r.a, r.b, r.d)
    assert (r.a, r.b, r.d) == (renormalized.a, renormalized.b, renormalized.d)
    QuadReal(r.a, r.b, r.d)  # full validation accepts it


@given(same_field_operands())
def test_operators_match_quad_normal_form(operands):
    x, y = operands
    o = y if isinstance(y, QuadReal) else quad(y)
    d = x.d or o.d
    expected = {
        "+": quad(x.a + o.a, x.b + o.b, d),
        "-": quad(x.a - o.a, x.b - o.b, d),
        "*": quad(x.a * o.a + x.b * o.b * d, x.a * o.b + x.b * o.a, d),
        "neg": quad(-x.a, -x.b, x.d),
    }
    results = {"+": x + y, "-": x - y, "*": x * y, "neg": -x}
    if o:
        norm = o.a * o.a - o.b * o.b * d
        expected["/"] = quad((x.a * o.a - x.b * o.b * d) / norm,
                             (x.b * o.a - x.a * o.b) / norm, d)
        results["/"] = x / y
    for op, r in results.items():
        assert_normal(r)
        assert (r.a, r.b, r.d) == (expected[op].a, expected[op].b, expected[op].d), op
    for r in (y + x, y - x, y * x):
        assert_normal(r)


@given(same_field_operands())
def test_comparisons_match_sign_of_difference(operands):
    x, y = operands
    sign = quad_sign(x - y)
    assert (x < y) == (sign < 0)
    assert (x <= y) == (sign <= 0)
    assert (x > y) == (sign > 0)
    assert (x >= y) == (sign >= 0)


def test_comparison_rejects_other_radicands_and_types():
    with pytest.raises(MixedRadicand):
        radical(2) < radical(3)
    with pytest.raises(TypeError):
        radical(2) < 1.5


@pytest.mark.parametrize("a, b, d", [(0.1, 0, 0), ("1/3", 0, 0), (0, 1, 2.0)],
                         ids=["float", "text", "float-radicand"])
def test_quad_takes_exact_inputs_only(a, b, d):
    with pytest.raises(TypeError):
        quad(a, b, d)


def test_each_radicand_is_factored_once():
    _square_free.cache_clear()
    operands = [quad(k, 1, 1000003) for k in range(1, 11)]
    expected = quad(100 * sum(range(1, 11)), 1000, 1000003)
    assert _square_free.cache_info().misses == 1
    before = _square_free.cache_info()
    total = quad(0)
    for k in range(1000):
        total = total + operands[k % 10]
        assert total > operands[k % 10] or k == 0
    assert total == expected
    assert _square_free.cache_info() == before  # arithmetic never factors


# Radicands for the sign rule's differential tests, up to a 12-digit square-free one.
SIGN_RADICANDS = (2, 5, 12, 1000003, 10 ** 12 - 11)
HUGE = 10 ** 30
huge_rationals = st.one_of(st.integers(-HUGE, HUGE),
                           st.builds(Fraction, st.integers(-HUGE, HUGE), st.integers(1, HUGE)))


def near_cancelling(d):
    """(p - q*sqrt(d))/scale, with p an integer next to q*sqrt(d): within about 1/q of zero."""
    def build(q, up, scale):
        root = isqrt(q * q * d)
        p = root + 1 if up else root
        return quad(Fraction(p, scale), Fraction(-q, scale), d)
    return st.builds(build, st.integers(1, 10 ** 15), st.booleans(), st.integers(1, 10 ** 6))


def huge_quads(d):
    return st.one_of(st.builds(lambda a, b: quad(a, b, d), huge_rationals, huge_rationals),
                     near_cancelling(d))


HUGE_QUADS = {d: huge_quads(d) for d in SIGN_RADICANDS}  # built once: building costs more than drawing
tiny_shifts = st.builds(lambda k, t: Fraction(k, 10 ** t), st.integers(-1, 1), st.integers(0, 40))


@st.composite
def order_operands(draw):
    """(x, y): x a QuadReal, y a QuadReal of the same or another field, an int or a Fraction."""
    d = draw(st.sampled_from(SIGN_RADICANDS))
    x = draw(HUGE_QUADS[d])
    kind = draw(st.sampled_from(("same field", "rational", "shifted", "any field")))
    if kind == "same field":
        return x, draw(HUGE_QUADS[d])
    if kind == "rational":
        return x, draw(huge_rationals)
    if kind == "shifted":
        return x, x + draw(tiny_shifts)
    return x, draw(HUGE_QUADS[draw(st.sampled_from(SIGN_RADICANDS))])


def mp_sign(x):
    with mpmath.workdps(800):  # enough digits for the sign of a difference of these operands
        value = to_mp(x)
    return (value > 0) - (value < 0)


@settings(max_examples=2000, deadline=None)
@given(order_operands())
@example((radical(2) * 408, 577))  # 577 - 408*sqrt(2) > 0 by 1/(577 + 408*sqrt(2))
@example((quad(577, -408, 2), quad(Fraction(1, 1154))))
def test_order_sign_and_abs_match_the_fraction_oracle_and_mpmath(operands):
    x, y = operands
    o = y if isinstance(y, QuadReal) else quad(y)
    for v in (x, y):
        expected = _sign(o.a, o.b, o.d) if v is y else _sign(x.a, x.b, x.d)
        assert quad_sign(v) == expected == mp_sign(o if v is y else x)
        assert abs(v) == (v if expected >= 0 else -v)
    if x.d and o.d and x.d != o.d:
        for compare in (lambda: x < y, lambda: x <= y, lambda: y > x, lambda: y >= x):
            with pytest.raises(MixedRadicand):
                compare()
        assert x != y
        return
    sign = _sign(x.a - o.a, x.b - o.b, x.d or o.d)
    assert sign == mp_sign(x - o)
    assert [x < y, x <= y, x > y, x >= y, x == y] == [sign < 0, sign <= 0, sign > 0, sign >= 0, sign == 0]
    assert [y > x, y >= x, y < x, y <= x, y == x] == [sign < 0, sign <= 0, sign > 0, sign >= 0, sign == 0]


@settings(max_examples=500, deadline=None)
@given(st.integers(-HUGE, HUGE), st.integers(-HUGE, HUGE), st.sampled_from(SIGN_RADICANDS))
@example(577, -408, 2)
@example(-577, 408, 2)
@example(665857, -470832, 2)
@example(-665857, 470832, 2)
@example(0, 0, 2)
@example(-1, 0, 10 ** 12 - 11)
def test_positive_matches_the_fraction_oracle_and_mpmath(p, q, radicand):
    d = quad(0, 1, radicand).d  # the square-free part, as _positive requires
    for pair in ((p, q), (isqrt(q * q * d), q), (-isqrt(q * q * d) - 1, q)):  # near cancellation
        expected = _sign(Fraction(pair[0]), Fraction(pair[1]), d) > 0
        assert _positive(*pair, d) == expected == (mp_sign(quad(*pair, d)) > 0)


@pytest.mark.parametrize("value, sign, floor", [
    (3, 1, 3), (-3, -1, -3), (0, 0, 0), (Fraction(7, 2), 1, 3), (Fraction(-7, 2), -1, -4),
])
def test_sign_and_floor_take_ints_and_fractions(value, sign, floor):
    assert quad_sign(value) == sign
    assert quad_floor(value) == floor


@pytest.mark.parametrize("value", [0.5, "1", None], ids=["float", "text", "none"])
@pytest.mark.parametrize("function", [quad_sign, quad_floor])
def test_sign_and_floor_reject_inexact_values(function, value):
    with pytest.raises(TypeError, match="cannot interpret"):
        function(value)


@pytest.mark.parametrize("a, b, d", [(0.5, 0, 0), (Fraction(1), 1.0, 2), (1, 0, 0.0)],
                         ids=["float", "float-coefficient", "float-radicand"])
def test_quadreal_takes_exact_inputs_only(a, b, d):
    with pytest.raises(TypeError, match="QuadReal takes int or Fraction coefficients"):
        QuadReal(a, b, d)


def test_quadreal_of_ints_is_a_normal_value():
    assert QuadReal(1, 0, 0) == quad(1)
    assert QuadReal(1, 0, 0) < quad(2) and str(QuadReal(1, 0, 0)) == "1/1"


@pytest.mark.parametrize("call, error, message", [
    (lambda: QuadReal(Fraction(1), Fraction(1), -2), ValueError, "radicand must be nonnegative"),
    (lambda: QuadReal(Fraction(1), Fraction(0), 2), ValueError, "rational values must carry d == 0"),
    (lambda: QuadReal(Fraction(0), Fraction(1), 1), ValueError, "non-normalized radicand"),
    (lambda: QuadReal(Fraction(0), Fraction(1), 8), ValueError, "radicand must be square-free"),
    (lambda: radical(2) / 0, ZeroDivisionError, "division by zero"),
    (lambda: quad(1, 1, -2), ValueError, "radicand must be nonnegative"),
    (lambda: quad_approx(radical(2), 0), ValueError, "digits must be >= 1"),
], ids=["negative-d", "rational-with-d", "d-one", "d-not-square-free", "divide-by-zero",
        "quad-negative-d", "zero-digits"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_text_is_not_equal_and_float_rounds():
    assert (radical(2) == "x") is False
    assert float(radical(2)) == 1.4142135623730951
