import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from ietlab import (
    ConsistencyViolation,
    IdocResult,
    Iet,
    IetlabError,
    InvalidPermutation,
    MixedRadicand,
    NonPositiveLength,
    OutOfDomain,
    Permutation,
    format_quad,
    idoc_check,
    iet_new,
    irreducible,
    orbit,
    orbit_point,
    permutation,
    quad,
    radical,
)
from ietlab.exactnum import _lattice
from ietlab.iet import _lattice_walk, _points, tiles
from helpers import (FloatIet, count_compares, four_example, golden_example, idoc_by_quad_walk,
                     inverse_tau, quad_apply, quad_apply_inverse, quad_image_interval_index,
                     quad_interval_index, quad_iterate, quad_walk, random_irreducible, random_quad_iet,
                     sqrt2_example, to_mp)


def test_permutation_basics():
    sigma = permutation(3, 1, 4, 2)
    assert sigma.n == 4
    assert sigma(1) == 3 and sigma(4) == 2
    assert sigma.inverse()(3) == 1
    assert tuple(sigma.inverse()(sigma(i)) for i in range(1, 5)) == (1, 2, 3, 4)


def test_permutation_validation():
    with pytest.raises(InvalidPermutation):
        permutation(1, 1)
    with pytest.raises(InvalidPermutation):
        permutation(0, 1)
    with pytest.raises(InvalidPermutation):
        permutation(2, 3)
    with pytest.raises(InvalidPermutation):
        Permutation(())
    for images in ((2.0, 1.0), (2, True), (2, "1"), (Fraction(2), 1)):  # equal or unorderable to ints
        with pytest.raises(InvalidPermutation, match="^not a permutation of 1..n: "):
            Permutation(images)


@pytest.mark.parametrize("images, shown", [
    (lambda: (i for i in (2, 1)), "<generator object "),
    (lambda: None, "None$"),
    (lambda: 21, "21$"),
], ids=["generator", "None", "int"])
def test_permutation_without_a_length_is_invalid(images, shown):
    # images with no len() are no permutation either, not a bare TypeError
    with pytest.raises(InvalidPermutation, match=f"^not a permutation of 1..n: {shown}"):
        Permutation(images())


def test_permutation_from_a_list_is_its_tuple():
    listed, tupled = Permutation([2, 1]), Permutation((2, 1))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed.images == (2, 1) and type(listed.images) is tuple
    assert listed.inverse() == tupled
    lengths = [radical(2) - 1, 2 - radical(2)]
    assert {iet_new(listed, lengths), iet_new(tupled, lengths)} == {iet_new(tupled, lengths)}
    with pytest.raises(InvalidPermutation, match=r"^not a permutation of 1..n: \[1, 1\]$"):
        Permutation([1, 1])


def test_irreducible():
    assert irreducible(permutation(2, 1))
    assert irreducible(permutation(3, 1, 4, 2))
    assert not irreducible(permutation(1, 2))
    assert not irreducible(permutation(2, 1, 3))


def test_lengths_must_be_positive(sqrt2_iet):
    with pytest.raises(NonPositiveLength):
        iet_new(permutation(2, 1), [quad(1), quad(0)])
    with pytest.raises(NonPositiveLength):
        iet_new(permutation(2, 1), [quad(1), quad(-1, 0, 0)])


def test_sqrt2_prefix_sums(sqrt2_iet):
    T = sqrt2_iet
    assert [format_quad(b) for b in T.beta] == ["0/1", "-1/1+1/1r", "1/1"]
    assert [format_quad(t) for t in T.tau] == ["2/1-1/1r", "1/1-1/1r"]
    assert T.total == quad(1)


def test_golden_prefix_sums(golden_iet):
    T = golden_iet
    assert [format_quad(b) for b in T.beta] == ["0/1", "-1/2+1/2r", "1/1"]
    assert [format_quad(t) for t in T.tau] == ["3/2-1/2r", "1/2-1/2r"]


def test_sqrt2_orbit_of_zero(sqrt2_iet):
    values = orbit(sqrt2_iet, quad(0), 1, 5)
    assert [format_quad(x) for x in values] == [
        "2/1-1/1r", "3/1-2/1r", "5/1-3/1r", "6/1-4/1r", "8/1-5/1r",
    ]


def test_orbit_against_float_simulation(sqrt2_iet):
    reference = FloatIet((2, 1), [to_mp(a) for a in sqrt2_iet.alpha])
    x_exact, x_float = quad(0), reference.beta[0]
    for _ in range(300):
        x_exact = sqrt2_iet.apply(x_exact)
        x_float = reference.apply(x_float)
        assert abs(to_mp(x_exact) - x_float) < 1e-45


def test_apply_inverse_round_trip(sqrt2_iet):
    x = quad(Fraction(1, 7))
    assert sqrt2_iet.apply_inverse(sqrt2_iet.apply(x)) == x
    assert sqrt2_iet.apply(sqrt2_iet.apply_inverse(x)) == x


@settings(max_examples=40)
@given(st.fractions(min_value=0, max_value=Fraction(96, 97), max_denominator=97))
def test_bijectivity_on_rationals(value):
    r2 = radical(2)
    T = iet_new(permutation(2, 1), [r2 - 1, 2 - r2])
    x = quad(value)
    assert T.apply_inverse(T.apply(x)) == x


def test_interval_index(sqrt2_iet):
    T = sqrt2_iet
    assert T.interval_index(quad(0)) == 1
    assert T.interval_index(T.beta[1]) == 2
    with pytest.raises(OutOfDomain):
        T.interval_index(quad(1))
    with pytest.raises(OutOfDomain):
        T.apply(quad(-1, 0, 0))


R = radical(2) - 1  # a cut point strictly inside [0, 1)


@pytest.mark.parametrize("pieces, expected", [
    ([(R, quad(1)), (quad(0), R)], True),  # exact cover, given out of order
    ([(quad(0), R / 2), (R, quad(1))], False),  # gap [R/2, R)
    ([(quad(0), R), (R / 2, quad(1))], False),  # overlap [R/2, R)
    ([(quad(0), R)], False),  # stops short of 1
    ([], False),
    ([(quad(0), R), (quad(0), quad(1))], False),  # two pieces start at 0
    ([(quad(0), R), (R, quad(1)), (quad(1), 1 + R)], False),  # runs on past 1
], ids=["exact", "gap", "overlap", "short", "none", "same-left", "past-end"])
def test_tiles(pieces, expected):
    assert tiles(pieces, quad(0), quad(1)) is expected


def tiles_by_sorting(pieces, start, end):
    """Reference for ``tiles``: sort by left end, and each piece must start where the last ended."""
    edge = start
    for left, right in sorted(pieces, key=lambda piece: piece[0]):
        if left != edge:
            return False
        edge = right
    return edge == end


END = 1 + radical(2)


@st.composite
def tilings(draw):
    """A shuffled partition of [0, 1 + sqrt 2) into 1-12 pieces, with at most one mutation."""
    # (p + q sqrt 2) / 12 with p, q in 0..12 lies in [0, END]; only p = q = 0 and p = q = 12 hit an end
    twelfths = st.integers(0, 12)
    inner = st.builds(lambda p, q: quad(Fraction(p, 12), Fraction(q, 12), 2), twelfths, twelfths)
    inner = inner.filter(lambda x: x != 0 and x != END)
    cuts = [quad(0)] + sorted(draw(st.sets(inner, max_size=11))) + [END]
    pieces = list(zip(cuts, cuts[1:]))
    mutation = draw(st.sampled_from(["none", "drop", "duplicate", "move", "past-end"]))
    k = draw(st.integers(0, len(pieces) - 1))
    if mutation == "drop":
        del pieces[k]
    elif mutation == "duplicate":
        pieces.append(pieces[k])
    elif mutation == "move":
        side = draw(st.integers(0, 1))
        cut = draw(st.sampled_from([c for c in cuts if c != pieces[k][side]]))
        pieces[k] = (cut, pieces[k][1]) if side == 0 else (pieces[k][0], cut)
    elif mutation == "past-end":
        pieces.append((END, END + draw(st.sampled_from(cuts[1:]))))
    return mutation, draw(st.permutations(pieces))


@settings(max_examples=200, deadline=None)
@given(tilings())
def test_tiles_matches_sorting(case):
    mutation, pieces = case
    assert tiles(pieces, quad(0), END) is tiles_by_sorting(pieces, quad(0), END)
    if mutation == "none":
        assert tiles(pieces, quad(0), END)


def test_iterate_matches_repeated_apply(sqrt2_iet):
    x = quad(Fraction(1, 3))
    y = sqrt2_iet.iterate(x, 4)
    z = x
    for _ in range(4):
        z = sqrt2_iet.apply(z)
    assert y == z
    assert sqrt2_iet.iterate(x, -4) == sqrt2_iet.apply_inverse(
        sqrt2_iet.apply_inverse(sqrt2_iet.apply_inverse(sqrt2_iet.apply_inverse(x)))
    )


def test_idoc_verified_for_quadratic_examples(sqrt2_iet, golden_iet):
    assert idoc_check(sqrt2_iet, 200).verified
    assert idoc_check(golden_iet, 200).verified


def test_idoc_rejects_rational_rotation():
    T = iet_new(permutation(2, 1), [quad(Fraction(1, 3)), quad(Fraction(2, 3))])
    result = idoc_check(T, 10)
    assert not result.verified
    assert result.witness is not None
    assert result.reason
    (i1, k1), (i2, k2) = result.witness
    # the witness names a genuine collision of separation-point orbits
    assert T.iterate(T.beta[i1], k1) == T.iterate(T.beta[i2], k2)


def test_idoc_matches_quad_walk_oracle():
    # rational and quadratic lengths with small denominators, so that many orbits collide
    rng = random.Random(20)
    reasons = {(False, ""): 0, (False, "orbit collision"): 0, (True, ""): 0, (True, "orbit collision"): 0}
    for case in range(300):
        n, d = rng.randint(2, 6), rng.choice([0, 2, 3, 5])
        lengths = []
        while len(lengths) < n:
            b = Fraction(rng.randint(-2, 2), rng.randint(1, 4)) if d and rng.random() < 0.5 else 0
            x = quad(Fraction(rng.randint(1, 6), rng.randint(1, 4)), b, d)
            if x > 0:
                lengths.append(x)
        T = iet_new(random_irreducible(rng, n), lengths)
        depth = rng.randint(1, 60)
        result = idoc_check(T, depth)
        assert result == idoc_by_quad_walk(T, depth), (case, T, depth)
        reasons[(any(x.b for x in lengths), result.reason)] += 1
    assert min(reasons.values()) >= 5, reasons


def test_idoc_stops_at_the_first_collision():
    T = iet_new(permutation(2, 1), [quad(Fraction(1, 3)), quad(Fraction(2, 3))])
    start = time.perf_counter()
    result = idoc_check(T, 10**6)
    assert time.perf_counter() - start < 0.05
    assert result.witness == ((1, 0), (1, 3)) and result.depth == 10**6


def test_idoc_makes_no_quad_comparisons(monkeypatch):
    maps = [sqrt2_example(), golden_example(), four_example()]
    calls = count_compares(monkeypatch)
    assert all(idoc_check(T, 200).verified for T in maps)
    assert calls[0] == 0


def test_idoc_status_text(sqrt2_iet):
    assert "verified" in idoc_check(sqrt2_iet, 5).status


def test_idoc_depth_recorded(sqrt2_iet):
    assert idoc_check(sqrt2_iet, 37).depth == 37


def test_random_irreducible_helper():
    import random

    rng = random.Random(7)
    for n in range(2, 7):
        sigma = random_irreducible(rng, n)
        assert irreducible(sigma)


@st.composite
def walk_cases(draw):
    """A random irreducible IET over Q(sqrt(d)), a start point, and a block width."""
    d = draw(st.sampled_from([2, 5, 1000003]))
    n = draw(st.integers(2, 5))
    sigma = Permutation(tuple(draw(st.permutations(range(1, n + 1)).filter(
        lambda images: irreducible(Permutation(tuple(images)))))))
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=9)
    lengths = []
    for _ in range(n):
        a = draw(st.fractions(min_value=Fraction(1, 9), max_value=3, max_denominator=9))
        lengths.append(abs(quad(a, draw(coefficients), d)))
    T = iet_new(sigma, lengths)
    t = draw(st.fractions(min_value=0, max_value=Fraction(99, 100), max_denominator=100))
    x = draw(st.sampled_from(T.beta[:-1]) | st.just(t * T.total))
    width = (T.total - x) * draw(st.fractions(min_value=Fraction(1, 1000), max_value=1,
                                              max_denominator=1000))
    return T, x, width


@settings(max_examples=60, deadline=None)
@given(walk_cases(), st.integers(1, 30))
def test_walk_matches_repeated_steps(case, steps):
    T, x, _ = case
    forward, backward = [], []
    y = z = x
    for _ in range(steps):
        forward.append((T.interval_index(y), y))
        y = T.apply(y)
        backward.append((T.image_interval_index(z), z))
        z = T.apply_inverse(z)
    assert list(islice(quad_walk(T, x), steps)) == forward
    assert list(islice(quad_walk(T, x, backward=True), steps)) == backward


@settings(max_examples=60, deadline=None)
@given(walk_cases(), st.booleans(), st.integers(1, 30))
def test_block_walk_stops_exactly_at_a_crossing(case, backward, steps):
    T, x, width = case
    ends = T.beta_prime if backward else T.beta
    step = T.apply_inverse if backward else T.apply
    expected = []
    y = x
    crossing = False
    for _ in range(steps):
        expected.append(y)
        if any(y < end < y + width for end in ends[1:]):
            crossing = True
            break
        y = step(y)
    walk = quad_walk(T, x, width, backward=backward)
    assert [y for _, y in islice(walk, len(expected))] == expected
    if crossing:
        with pytest.raises(ConsistencyViolation):
            next(walk)


def lattice_walk_by_quad_steps(T, x, stop, width, window, backward, open_left):
    """What ``_lattice_walk`` must return, from ``quad_walk`` and ``QuadReal`` tests.

    quad_walk runs its crossing test when it is resumed, so a block is tested
    only before a step, and never at the last point of the budget.
    """
    word = []
    walk = quad_walk(T, x, width, backward=backward)
    for s in range(stop):
        i, y = next(walk)
        if window and (s or backward):
            a, b = window
            if (a < y if open_left else a <= y) and y < b:
                return word, y
            if s and y == x:
                return word, None
        word.append(i)
    return word, None


def outcome(walk, *args):
    try:
        return walk(*args)
    except IetlabError as error:
        return type(error).__name__, str(error)


def float_walk(T, x, word, backward):
    """60-digit floats of x and of each point the word steps to; each lies in its interval before its step."""
    reference = FloatIet(T.sigma.images, [to_mp(a) for a in T.alpha])
    points = [to_mp(x)]
    for i in word:
        if backward:  # i indexes I'(i), the image of I(j) for sigma(j) = i
            j = T.sigma.inverse()(i)
            low, high = reference.beta[j - 1] + reference.tau[j - 1], reference.beta[j] + reference.tau[j - 1]
            move = -reference.tau[j - 1]
        else:
            low, high, move = reference.beta[i - 1], reference.beta[i], reference.tau[i - 1]
        assert low - 1e-40 < points[-1] < high + 1e-40
        points.append(points[-1] + move)
    return points


def check_against_floats(T, x, word, landing, backward):
    """Follow the word in 60-digit floats: each point lies in its interval, and the walk ends at landing."""
    assert abs(float_walk(T, x, word, backward)[-1] - to_mp(landing)) < 1e-40


@st.composite
def periodic_walk_cases(draw):
    """A rational IET with lengths in twelfths, so every orbit is periodic, a start and a width."""
    n = draw(st.integers(2, 4))
    sigma = Permutation(tuple(draw(st.permutations(range(1, n + 1)).filter(
        lambda images: irreducible(Permutation(tuple(images)))))))
    twelfths = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    T = iet_new(sigma, [quad(Fraction(k, 12)) for k in twelfths])
    x = quad(Fraction(draw(st.integers(0, sum(twelfths) - 1)), 12))
    return T, x, quad(Fraction(draw(st.integers(1, 12)), 12))


@st.composite
def walk_windows(draw, T):
    """Nothing, or a window [a, b) of [0, |T|) with ends at multiples of |T|/60."""
    if not draw(st.booleans()):
        return ()
    u, v = sorted(draw(st.lists(st.integers(0, 60), min_size=2, max_size=2, unique=True)))
    return T.total * Fraction(u, 60), T.total * Fraction(v, 60)


@settings(max_examples=300, deadline=None)
@given(walk_cases() | periodic_walk_cases(), st.booleans(), st.booleans(), st.booleans(),
       st.integers(1, 30), st.data())
def test_lattice_walk_matches_quad_walk(case, backward, with_width, open_left, stop, data):
    T, x, width = case
    width = width if with_width else None
    if data.draw(st.integers(0, 9)) == 0:
        x = T.total  # out of the domain
    window = data.draw(walk_windows(T))
    args = (T, x, stop, width, window, backward, open_left)
    expected = outcome(lattice_walk_by_quad_steps, *args)
    got = outcome(_lattice_walk, *args)
    assert got == expected
    if isinstance(got[0], list) and got[1] is not None:
        check_against_floats(T, x, *got, backward)


@settings(max_examples=200, deadline=None)
@given(walk_cases() | periodic_walk_cases(), st.booleans(), st.booleans(), st.integers(1, 60), st.data())
def test_point_view_matches_quad_walk(case, backward, with_width, steps, data):
    # with a width, the same points, then the same crossing text or none, before the same step
    T, x, width = case
    width = width if with_width else None
    start = data.draw(st.sampled_from(["drawn", "total", "sqrt3"]))
    if start == "total":
        x = T.total  # out of the domain
    elif start == "sqrt3" and not any(a.d for a in T.alpha):
        x = T.total * (radical(3) - 1) / 2  # a rational map walks the point in Q(sqrt(3))
    expected = outcome(lambda: list(islice(quad_walk(T, x, width, backward=backward), steps)))
    got = outcome(lambda: list(islice(_points(T._inverse if backward else T, x, width), steps)))
    assert got == expected
    if isinstance(got, list):
        floats = float_walk(T, x, [i for i, _ in got], backward)
        assert all(abs(to_mp(y) - f) < 1e-40 for (_, y), f in zip(got, floats))


def test_point_view_rejects_a_mixed_radicand():
    # both ends of the first interval search are irrational, so the oracle fails at the first point too
    for T in (sqrt2_example(), golden_example()):
        x = T.total * (radical(3) - 1) / 2
        for backward in (False, True):
            message = f"sqrt(3) and sqrt({T.alpha[0].d}) cannot mix"
            walked = T._inverse if backward else T
            assert outcome(lambda: next(_points(walked, x))) == ("MixedRadicand", message)
            assert outcome(lambda: next(quad_walk(T, x, backward=backward))) == ("MixedRadicand", message)


def test_orbit_matches_quad_walk():
    for T in (sqrt2_example(), golden_example(), four_example()):
        for x in (quad(0), T.beta[1], T.total / 3):
            start = list(islice(quad_walk(T, x, backward=True), 4))[-1][1]  # T^-3(x)
            expected = tuple(y for _, y in islice(quad_walk(T, start), 9))
            assert expected[3] == x
            assert orbit(T, x, -3, 5) == expected


def single_steps(power):
    """Each single-step view of the kernel beside its bisect-and-add oracle, iterating by ``power``."""
    return {"interval_index": (Iet.interval_index, quad_interval_index),
            "image_interval_index": (Iet.image_interval_index, quad_image_interval_index),
            "apply": (Iet.apply, quad_apply), "apply_inverse": (Iet.apply_inverse, quad_apply_inverse),
            "iterate": (lambda T, x: T.iterate(x, power), lambda T, x: quad_iterate(T, x, power))}


@settings(max_examples=150, deadline=None)
@given(walk_cases() | periodic_walk_cases(), st.integers(-30, 30))
def test_single_steps_match_the_quad_oracle(case, power):
    T, x, _ = case
    for name, (view, oracle) in single_steps(power).items():
        assert view(T, x) == oracle(T, x), name
    for name, (view, oracle) in single_steps(power or 1).items():
        for y in (T.total, x - T.total):  # at the right end and below 0: the same text
            got = outcome(view, T, y)
            assert got[0] == "OutOfDomain" and got == outcome(oracle, T, y), name
        if any(a.d for a in T.alpha):
            with pytest.raises(MixedRadicand):
                view(T, quad(Fraction(1, 7), Fraction(1, 100), 3 if T.alpha[0].d != 3 else 5))
    assert T.iterate(T.total, 0) is T.total


@pytest.mark.parametrize("start, expected", [
    (Fraction(1, 2), None), (0, None),
    (1, (OutOfDomain, "1/1 outside [0, 1/1)")), (-1, (OutOfDomain, "-1/1 outside [0, 1/1)")),
    (0.5, (TypeError, "cannot interpret 0.5 as a quadratic number")),
    ("1/2", (TypeError, "cannot interpret '1/2' as a quadratic number")),
])
def test_views_coerce_int_and_fraction_starts(start, expected):
    T = sqrt2_example()
    views = {"orbit": (lambda T, x: orbit(T, x, 0, 3),
                       lambda T, x: tuple(quad_iterate(T, x, k) for k in range(4))),
             **{f"{name} 3": pair for name, pair in single_steps(3).items()},
             **{f"{name} -3": pair for name, pair in single_steps(-3).items()}}
    for name, (view, oracle) in views.items():
        if expected is None:
            assert view(T, start) == oracle(T, quad(start)), name
        else:
            with pytest.raises(expected[0], match=f"^{re.escape(expected[1])}$"):
                view(T, start)
    assert T.iterate(start, 0) is start  # power 0 reads nothing


@st.composite
def any_maps(draw):
    """An IET with any permutation of 2..6 symbols and lengths in Q(sqrt(d)), d = 0 rational."""
    d = draw(st.sampled_from([0, 2, 5, 1000003]))
    n = draw(st.integers(2, 6))
    sigma = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    rational = st.fractions(min_value=Fraction(1, 9), max_value=3, max_denominator=9)
    radical_part = st.fractions(min_value=-3, max_value=3, max_denominator=9)
    return iet_new(sigma, [abs(quad(draw(rational), draw(radical_part), d)) for _ in range(n)])


@settings(max_examples=200, deadline=None)
@given(any_maps())
def test_inverse_is_the_exchange_of_the_inverse_permutation(T):
    # T^-1 = T(sigma^-1, alpha o sigma^-1), read off T's fields: ends beta', image ends beta
    inv = T.sigma.inverse()
    expected = iet_new(inv, [T.alpha[i - 1] for i in inv.images])
    R = T._inverse
    for field in ("sigma", "alpha", "beta", "beta_prime", "tau"):
        assert getattr(R, field) == getattr(expected, field), field
    assert (R.beta, R.beta_prime, str(R.total)) == (T.beta_prime, T.beta, str(T.total))
    assert R._forward_lattice[:2] == T._forward_lattice[:2]  # the same radicand and denominator D
    assert T._inverse is R  # cached: one inverse, one encoding, per map
    assert all(R.apply(T.apply(x)) == x for x in T.beta[:-1])


def cached_lattices(T):
    """The map's two cached encodings, with their pair lists copied."""
    return [(d, D, list(pairs)) for d, D, pairs in (T._forward_lattice, T._inverse._forward_lattice)]


def test_lattice_walk_leaves_the_cached_encoding_unchanged():
    # starts, windows and widths over 7 and 1009 rescale a copy of the map's pairs; seed 18
    # gives random maps whose denominators avoid both
    rng = random.Random(18)
    maps = [sqrt2_example(), golden_example(), four_example(),
            iet_new(permutation(3, 1, 4, 2), [quad(Fraction(1, 4))] * 4)]
    maps += [random_quad_iet(rng, rng.randint(3, 5)) for _ in range(4)]
    for T in maps:
        saved = cached_lattices(T)
        assert saved == [_lattice([*T.beta, *T.tau]),
                         _lattice([*T.beta_prime, *(-t for t in inverse_tau(T))])]
        assert all(D % 7 and D % 1009 for _, D, _ in saved)
        for x in (quad(Fraction(1, 7)), quad(Fraction(5, 1009)), T.beta[1]):
            for backward in (False, True):
                for width, window in ((None, (T.total / 3, T.total / 2)),
                                      (quad(Fraction(1, 7 * 1009)), (quad(0), T.total))):
                    args = (T, x, 40, width, window, backward, False)
                    assert outcome(_lattice_walk, *args) == outcome(lattice_walk_by_quad_steps, *args)
                    assert cached_lattices(T) == saved


def test_mixed_radicand_message_repeats_on_one_map():
    # a failed walk caches nothing: the second call names the point's radicand before the map's again
    T, R = sqrt2_example(), iet_new(permutation(2, 1), [quad(Fraction(1, 3)), quad(Fraction(2, 3))])
    cases = [(T, quad(0, Fraction(1, 10), 3), None, "sqrt(3) and sqrt(2) cannot mix"),
             (T, quad(Fraction(1, 10)), quad(0, Fraction(1, 100), 5), "sqrt(5) and sqrt(2) cannot mix"),
             (R, quad(0, Fraction(1, 10), 3), quad(0, Fraction(1, 100), 5),
              "sqrt(5) and sqrt(3) cannot mix")]
    for M, x, width, message in cases:
        for backward in (False, True, False):
            with pytest.raises(MixedRadicand, match=f"^{re.escape(message)}$"):
                _lattice_walk(M, x, 5, width, backward=backward)
    for M in (T, R):
        args = (M, quad(Fraction(1, 10)), 10, None, (), False, False)
        assert outcome(_lattice_walk, *args) == outcome(lattice_walk_by_quad_steps, *args)


@pytest.mark.parametrize("call, error, message", [
    (lambda T: orbit(T, quad(0), 3, 2), ValueError, "empty exponent range"),
    (lambda T: orbit_point(T, 3, 0), OutOfDomain, "no separation point with index 3"),
    (lambda T: orbit_point(T, -1, 0), OutOfDomain, "no separation point with index -1"),
    (lambda T: orbit_point(T, 2, 1), OutOfDomain, "beta(n) is not in the domain of T"),
    (lambda T: idoc_check(T, 0), ValueError, "depth must be >= 1"),
], ids=["orbit-empty-range", "orbit-point-base-above-n", "orbit-point-negative-base",
        "orbit-point-steps-beta-n", "idoc-depth-zero"])
def test_input_checks(sqrt2_iet, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(sqrt2_iet)


def test_idoc_reports_a_reducible_sigma():
    T = iet_new(permutation(1, 2), [quad(1), radical(2)])
    assert idoc_check(T, 5) == IdocResult(False, 5, None, "sigma is reducible")


def test_idoc_keeps_only_the_separation_points():
    # T is injective, so one entry per beta(j) decides the check; storing every orbit
    # point of this walk (3 * 10^5 pairs) peaks at about 68 MB
    T = four_example()
    tracemalloc.start()
    try:
        result = idoc_check(T, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == IdocResult(True, 10**5)
    assert peak < 2**20
