import dataclasses
import hashlib
import json
import random
import re
from fractions import Fraction
from itertools import permutations as all_permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ietlab import (
    ClosedTransversalRequired,
    ConsistencyViolation,
    DepthExceeded,
    IetlabError,
    NotVerifiedIDOC,
    Permutation,
    Reducible,
    ShapeViolation,
    idoc_check,
    iet_new,
    irreducible,
    mat_mul,
    orbit,
    parse_quad,
    permutation,
    quad,
    radical,
    singularity_profile,
    strip_decomposition,
)
from ietlab.exactnum import _square_free
from ietlab.suspension import StripLevel, _first_depth, _incidence, _OrbitCache
from helpers import (count_calls, count_compares, four_example, golden_example, quad_strip_decomposition,
                     random_irreducible, random_quad_iet, sqrt2_example)


def test_sigma0_two_interval():
    profile = singularity_profile(permutation(2, 1))
    assert profile.sigma0 == (1, 2, 0)
    assert profile.cycles == ((0, 1, 2),)
    assert profile.N == 1
    assert profile.genus == 1
    assert profile.closed_transversal
    assert profile.fake_saddles == ()
    only = profile.singularities[0]
    assert (only.adjusted_length, only.multiplicity, only.prongs) == (1, 0, 2)


def test_sigma0_spot_check_genus_two():
    profile = singularity_profile(permutation(3, 1, 4, 2))
    assert profile.sigma0 == (1, 2, 3, 4, 0)
    assert profile.N == 1
    assert profile.genus == 2
    assert len(profile.singularities) == 1
    assert profile.singularities[0].multiplicity == 2
    assert profile.singularities[0].prongs == 6


def test_sigma0_fake_saddle():
    profile = singularity_profile(permutation(2, 3, 1))
    assert profile.sigma0 == (2, 1, 3, 0)
    assert profile.cycles == ((0, 2, 3), (1,))
    assert profile.N == 2
    assert profile.fake_saddles == (1,)
    # the fake saddle is the sigma0 fixed point and a removable 2-prong point
    fake = [s for s in profile.singularities if s.cycle == (1,)][0]
    assert fake.prongs == 2


def test_sigma0_open_transversal():
    profile = singularity_profile(permutation(4, 3, 2, 1))
    assert profile.sigma0 == (3, 4, 0, 1, 2)
    assert profile.genus == 2
    assert not profile.closed_transversal


def test_sigma0_rejects_reducible():
    with pytest.raises(Reducible):
        singularity_profile(permutation(1, 2))


def test_sigma0_invariants_exhaustive_small():
    for n in range(2, 6):
        for images in all_permutations(range(1, n + 1)):
            sigma = Permutation(images)
            if not irreducible(sigma):
                continue
            profile = singularity_profile(sigma)
            assert sorted(profile.sigma0) == list(range(n + 1))
            assert sum(len(c) for c in profile.cycles) == n + 1
            fixed = tuple(j for j in range(1, n) if profile.sigma0[j] == j)
            assert fixed == profile.fake_saddles
            if profile.closed_transversal:
                assert profile.sigma0[n] == 0


def test_strips_level1_sqrt2(sqrt2_iet):
    level = strip_decomposition(sqrt2_iet, 1)[0]
    assert level.raw_K == 4
    assert level.K == 5
    assert [s.height for s in level.strips] == [5, 2]
    assert [s.visit_word for s in level.strips] == [(1, 2, 1, 2), (2,)]
    assert level.incidence_to_previous is None
    assert [(m.delta, m.i, m.exponent) for m in level.markers] == [
        (1, 0, 2), (0, 1, 4), (1, 1, 1), (0, 2, 5),
    ]
    assert [(m.delta, m.i, m.exponent) for m in level.primed_markers] == [
        (1, 0, 2), (0, 1, 6), (1, 1, 3), (0, 2, 5),
    ]


def test_strips_deeper_levels_sqrt2(sqrt2_iet):
    levels = strip_decomposition(sqrt2_iet, 4)
    assert [(lvl.raw_K, lvl.K) for lvl in levels] == [(4, 5), (7, 7), (11, 12), (16, 17)]
    assert [tuple(s.height for s in lvl.strips) for lvl in levels] == [
        (5, 2), (5, 7), (5, 12), (17, 12),
    ]
    assert [lvl.incidence_to_previous for lvl in levels[1:]] == [
        ((1, 0), (1, 1)), ((1, 0), (1, 1)), ((1, 1), (0, 1)),
    ]


def test_strip_heights_follow_incidence(sqrt2_iet):
    levels = strip_decomposition(sqrt2_iet, 4)
    for prev, level in zip(levels, levels[1:]):
        old = [s.height for s in prev.strips]
        new = [s.height for s in level.strips]
        M = level.incidence_to_previous
        assert new == [sum(M[i][j] * old[j] for j in range(len(old)))
                       for i in range(len(new))]


def test_strips_golden_fibonacci(golden_iet):
    levels = strip_decomposition(golden_iet, 10)
    assert [lvl.K for lvl in levels] == [6, 8, 13, 21, 34, 55, 89, 144, 233, 377]
    assert [lvl.raw_K for lvl in levels] == [5, 7, 12, 20, 33, 54, 88, 143, 232, 376]


def test_floors_tile_the_interval(sqrt2_iet):
    for level in strip_decomposition(sqrt2_iet, 3):
        floors = sorted(
            (floor.left, floor.right)
            for strip in level.strips
            for floor in strip.floors
        )
        edge = quad(0)
        for left, right in floors:
            assert left == edge
            edge = right
        assert edge == sqrt2_iet.total


def test_consecutive_floors_are_images():
    # the strip layer reads floors from its orbit table; here the orbit is walked afresh
    for T in (sqrt2_example(), golden_example(), four_example()):
        levels = strip_decomposition(T, 8)
        floors = [floor for level in levels for strip in level.strips for floor in strip.floors]
        # strips flow past the marker depth K, so the walk goes to the highest floor exponent
        depth = max(levels[-1].K + 1, *(max(f.left_exponent, f.right_exponent) for f in floors))
        points = orbit(T, quad(0), 0, depth)
        for level in levels:
            for strip in level.strips:
                assert len({floor.right - floor.left for floor in strip.floors}) == 1
                for floor in strip.floors:
                    assert floor.left == points[floor.left_exponent]
                    assert floor.right == (points[floor.right_exponent] if floor.right_exponent
                                           else T.total)
                for below, above in zip(strip.floors, strip.floors[1:]):
                    assert T.apply(below.left) == above.left
                for floor, i in zip(strip.floors, strip.visit_word):
                    assert floor.interval == i
        for k in range(depth):
            assert T.image_interval_index(points[k + 1]) == T.sigma(T.interval_index(points[k]))


def test_floor_interval_is_the_interval_containing_it(sqrt2_iet):
    for T in (sqrt2_iet, four_example()):
        for level in strip_decomposition(T, 4):
            for floor in (floor for strip in level.strips for floor in strip.floors):
                containing = [i for i in range(1, T.n + 1)
                              if T.beta[i - 1] <= floor.left and floor.right <= T.beta[i]]
                assert floor.interval == (containing[0] if containing else None)


def test_incidence_is_identity_plus_unit(sqrt2_iet):
    for level in strip_decomposition(sqrt2_iet, 4)[1:]:
        M = level.incidence_to_previous
        off = [(i, j) for i in range(len(M)) for j in range(len(M))
               if i != j and M[i][j]]
        assert all(M[i][i] == 1 for i in range(len(M)))
        assert len(off) == 1 and M[off[0][0]][off[0][1]] == 1


NOT_INSIDE = (ConsistencyViolation, "new floor is not inside a single old floor")
NO_SPLIT = (ShapeViolation, "0 strips split, expected exactly one")


@pytest.mark.parametrize("example, previous, current, error", [
    (sqrt2_example, 1, 0, NOT_INSIDE),
    (sqrt2_example, 2, 1, NOT_INSIDE),
    (golden_example, 1, 0, NOT_INSIDE),
    (golden_example, 2, 1, NOT_INSIDE),
    (four_example, 1, 0, NOT_INSIDE),
    (four_example, 2, 1, NOT_INSIDE),
    (sqrt2_example, 0, 2, (ShapeViolation, "aligned incidence matrix is not identity plus one unit")),
    (golden_example, 0, 2, (ShapeViolation, "2 strips split, expected exactly one")),
    (four_example, 0, 2, (ShapeViolation, "strip meets 3 previous strips")),
    (sqrt2_example, 3, 3, NO_SPLIT),
    (golden_example, 3, 3, NO_SPLIT),
    (four_example, 3, 3, NO_SPLIT),
], ids=["sqrt2-1-0", "sqrt2-2-1", "golden-1-0", "golden-2-1", "four-1-0", "four-2-1",
        "sqrt2-0-2", "golden-0-2", "four-0-2", "sqrt2-3-3", "golden-3-3", "four-3-3"])
def test_incidence_rejects_mismatched_levels(example, previous, current, error):
    levels = strip_decomposition(example(), 5)
    kind, message = error
    with pytest.raises(kind, match=f"^{message}$"):
        _incidence(levels[previous].strips, list(levels[current].strips))


@pytest.mark.parametrize("source, target", [(1, 0), (0, 1)], ids=["2-to-1", "1-to-2"])
def test_incidence_rejects_a_moved_floor(sqrt2_iet, source, target):
    # the first floor of one strip moves to the top of the other, so the floors still tile;
    # moving strip 1's floor also leaves uneven counts, but new strip 1's pairs are checked first
    levels = strip_decomposition(sqrt2_iet, 2)
    moved = list(levels[1].strips)
    floors = moved[source].floors
    moved[target] = dataclasses.replace(moved[target], floors=moved[target].floors + floors[:1])
    moved[source] = dataclasses.replace(moved[source], floors=floors[1:])
    with pytest.raises(ShapeViolation, match="^new strip misses floors of an old strip it meets$"):
        _incidence(levels[0].strips, moved)


def test_strip_levels_compare_few_times(monkeypatch):
    # every order test of the strip layer compares lattice pairs; tiling and incidence match
    # floor ends by equality (QuadReal orbits made 11,122, 17,109 and 4,745 comparisons)
    maps = [sqrt2_example(), golden_example(), four_example()]
    calls = count_compares(monkeypatch)
    counts = []
    for T in maps:
        calls[0] = 0
        strip_decomposition(T, 12)
        counts.append(calls[0])
    assert max(counts) < 100, counts


def test_strip_levels_hash_no_quad(monkeypatch):
    # tiling and incidence key floor ends by exponent and the primed-marker check steps lattice
    # pairs (QuadReal floor ends made 16,005, 25,092 and 7,014 hashes)
    maps = [sqrt2_example(), golden_example(), four_example()]
    calls = count_calls(monkeypatch, "__hash__")
    counts = []
    for T in maps:
        calls[0] = 0
        strip_decomposition(T, 12)
        counts.append(calls[0])
    assert counts == [0, 0, 0]


@pytest.mark.parametrize("example", [sqrt2_example, golden_example, four_example],
                         ids=["sqrt2", "golden", "four"])
@pytest.mark.parametrize("slot", [0, 1], ids=["highest", "lowest"])
def test_deepen_rejects_primed_markers_that_are_not_images(example, slot):
    # move one primed extreme to exponent 0: T^k(0) = 0 for no k >= 1, so 0 is no marker's image
    T = example()
    cache = _OrbitCache(T, 1000)
    _, K = _first_depth(T, cache)
    cache.deepen(K)
    cache.extremes[(True, 1)][slot] = 0
    with pytest.raises(ConsistencyViolation, match="^primed markers are not the T-images of the markers$"):
        cache.deepen(K)


def strip_outcome(build, T, levels, max_steps):
    try:
        return build(T, levels, max_steps)
    except IetlabError as error:
        return type(error), str(error)


def square_free(d):
    return _square_free(d) == (d, 1)


@st.composite
def closed_transversal_maps(draw):
    """A seeded random closed-transversal map over Q(sqrt(2)), Q(sqrt(d)) with d up to 7 digits, or Q."""
    d = draw(st.just(2) | st.integers(3, 9_999_999).filter(square_free) | st.just(0))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_quad_iet(rng, draw(st.integers(2, 7)), idoc_depth=0, d=d, closed=True)


@settings(max_examples=80, deadline=None)
@given(closed_transversal_maps(), st.integers(1, 6), st.integers(1, 60) | st.sampled_from([400, 2000]))
def test_strip_levels_match_the_quad_oracle(T, levels, max_steps):
    # markers, primed markers, floors, visit words and incidence, or the same error class and text
    got = strip_outcome(strip_decomposition, T, levels, max_steps)
    expected = strip_outcome(quad_strip_decomposition, T, levels, max_steps)
    assert got == expected and repr(got) == repr(expected)


def test_strip_oracle_sweep_meets_every_outcome():
    # the differential above must see levels and each of the strip layer's own errors
    rng = random.Random(5)
    seen = set()
    for _ in range(120):
        d = rng.choice([2, 0, 1_000_003])
        T = random_quad_iet(rng, rng.randint(2, 7), idoc_depth=0, d=d, closed=True)
        levels, max_steps = rng.randint(1, 6), rng.choice([rng.randint(1, 60), 400])
        got = strip_outcome(strip_decomposition, T, levels, max_steps)
        assert got == strip_outcome(quad_strip_decomposition, T, levels, max_steps)
        seen.add("levels" if isinstance(got[0], StripLevel) else got[0].__name__)
    assert seen >= {"levels", "ShapeViolation", "NotVerifiedIDOC", "DepthExceeded"}, seen


def test_strips_require_closed_transversal():
    lengths = [quad(Fraction(1, 4)) + radical(2) / 8, quad(Fraction(1, 4)),
               quad(Fraction(1, 4)), quad(Fraction(1, 4)) - radical(2) / 8]
    T = iet_new(permutation(4, 3, 2, 1), lengths)
    with pytest.raises(ClosedTransversalRequired):
        strip_decomposition(T, 1)


REDUCIBLE = ((2, 1, 3), [quad(Fraction(1, 3))] * 3)
OPEN = ((4, 3, 2, 1), [quad(Fraction(1, 4)) + radical(2) / 8, quad(Fraction(1, 4)),
                       quad(Fraction(1, 4)), quad(Fraction(1, 4)) - radical(2) / 8])


@pytest.mark.parametrize("data, levels, max_steps, error, message", [
    (REDUCIBLE, 0, 0, ValueError, "levels must be positive"),
    (REDUCIBLE, 1, 0, ValueError, "max_steps must be positive"),
    (REDUCIBLE, 1, 1, Reducible, "sigma (2, 1, 3) is reducible"),
    (OPEN, 0, 0, ValueError, "levels must be positive"),
    (OPEN, 1, 0, ValueError, "max_steps must be positive"),
    (OPEN, 1, 1, ClosedTransversalRequired, "sigma (4, 3, 2, 1) has no closed transversal through 0"),
], ids=["reducible-levels", "reducible-budget", "reducible", "open-levels", "open-budget", "open"])
def test_strip_checks_come_in_order(data, levels, max_steps, error, message):
    T = iet_new(permutation(*data[0]), data[1])
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        strip_decomposition(T, levels, max_steps=max_steps)
    if error is Reducible:  # the profile's own check, word for word
        with pytest.raises(Reducible, match=f"^{re.escape(message)}$"):
            singularity_profile(T.sigma)


def test_strips_reject_rational_data():
    T = iet_new(permutation(2, 1), [quad(Fraction(1, 3)), quad(Fraction(2, 3))])
    with pytest.raises(NotVerifiedIDOC, match="^orbit of 0 hits a separation point at exponent 2$"):
        strip_decomposition(T, 1)
    T = iet_new(permutation(3, 1, 4, 2), [quad(Fraction(1, 4))] * 4)
    with pytest.raises(NotVerifiedIDOC, match="^orbit of 0 hits a separation point at exponent 1$"):
        strip_decomposition(T, 1)


@pytest.mark.parametrize("example, max_steps, message", [
    (sqrt2_example, 3, "no depth below 3 covers every interval twice"),
    (sqrt2_example, 4, "orbit of 0 longer than 4 steps"),
    (sqrt2_example, 6, "no landing below 6 orbit steps"),
    (golden_example, 7, "no landing below 7 orbit steps"),
    (four_example, 30, "no depth below 30 covers every interval twice"),
], ids=["sqrt2-first-depth", "sqrt2-orbit", "sqrt2-landing", "golden-landing", "four-first-depth"])
def test_strips_budget_errors(example, max_steps, message):
    with pytest.raises(DepthExceeded, match=f"^{message}$"):
        strip_decomposition(example(), 6, max_steps=max_steps)


def test_strips_small_budgets_fail_only_on_depth():
    # a budget too small for 6 levels must read as DepthExceeded, never as a failed check
    for T in (sqrt2_example(), golden_example()):
        for max_steps in range(1, 41):
            try:
                levels = strip_decomposition(T, 6, max_steps=max_steps)
            except DepthExceeded:
                continue
            assert len(levels) == 6


@pytest.mark.parametrize("images, d, alpha, depth, first", [
    ((4, 1, 2, 3), 2, "1/1-1/6r, 1/3+2/7r, 2/1-1/3r, 8/5+3/7r", 15, 2),
    ((2, 3, 4, 1), 0, "3/2, 2/5, 1/1, 1/3", 21, 3),
    ((5, 1, 2, 3, 4), 2, "1/2, 1/1, 1/6+3/7r, 7/3-1/1r, 2/1+1/3r", 24, 2),
    # four levels pass; the fifth (K = 33) is the first whose depth K + 1 reaches the collision
    ((3, 1, 2), 2, "1/1, 2/1-1/5r, 5/1+1/4r", 34, 34),
    # T^24 beta(1) = beta(2): five levels (K = 7, 9, 12, 16, 19) walk the separation orbits
    # to depth 20, each from where the last stopped; the sixth (K = 23) meets beta(2)
    ((2, 3, 1), 2, "1/1-1/5r, 1/1, 3/2-1/7r", 24, 24),
], ids=["four-sqrt2", "four-rational", "five-sqrt2", "three-at-level-5", "three-at-level-6"])
def test_strips_report_orbit_collisions_at_their_depth(images, d, alpha, depth, first):
    # ``first`` is the least depth at which idoc_check finds a collision
    T = iet_new(Permutation(images), [parse_quad(part.strip(), d) for part in alpha.split(",")])
    message = f"distinct-orbit check failed below depth {depth}: orbit collision"
    with pytest.raises(NotVerifiedIDOC, match=f"^{message}$"):
        strip_decomposition(T, 6)
    assert idoc_check(T, first - 1).verified and not idoc_check(T, first).verified


def test_strips_report_a_one_step_connection():
    # T(beta(2)) = beta(1): the first level's test of the separation orbits starts at T(beta(i))
    T = iet_new(permutation(3, 1, 2), [quad(1), quad(1), parse_quad("4/1-1/2r", 2)])
    assert idoc_check(T, 1).witness == ((1, 0), (2, 1))
    with pytest.raises(NotVerifiedIDOC, match="^distinct-orbit check failed below depth 12: orbit collision$"):
        strip_decomposition(T, 6)


def test_strip_distinct_orbit_verdict_matches_idoc_check():
    # idoc_check searches every pair of separation-orbit points; the strip layer
    # only asks which orbit points are separation points, which injectivity makes equivalent
    rng = random.Random(11)
    r2 = radical(2)
    outcomes = set()
    for _ in range(60):
        n = rng.randint(3, 5)
        sigma = random_irreducible(rng, n)
        while sigma(n) != sigma(1) - 1:
            sigma = random_irreducible(rng, n)
        lengths = [quad(Fraction(rng.randint(2, 6), rng.randint(1, 2)))
                   + r2 * Fraction(rng.randint(-1, 1), rng.randint(2, 5)) for _ in range(n)]
        T = iet_new(sigma, lengths)
        try:
            levels = strip_decomposition(T, 6, max_steps=400)
        except NotVerifiedIDOC as error:
            collision = re.fullmatch(
                r"distinct-orbit check failed below depth (\d+): orbit collision", str(error))
            if collision:
                assert not idoc_check(T, int(collision[1])).verified
                outcomes.add("collision")
            continue
        except IetlabError:
            continue
        assert all(idoc_check(T, level.K + 1).verified for level in levels)
        outcomes.add("levels")
    assert outcomes == {"collision", "levels"}


def test_orbit_of_zero_returns_through_a_separation_point():
    # T^-1(0) = beta(sigma^-1(1) - 1), and sigma(1) != 1 for irreducible sigma, so the orbit
    # of 0 meets a separation point before it can repeat
    checked = 0
    for n in range(2, 7):
        for images in all_permutations(range(1, n + 1)):
            sigma = Permutation(images)
            if not irreducible(sigma):
                continue
            T = iet_new(sigma, [quad(Fraction(k + 1, k + 2)) for k in range(n)])
            assert T.apply_inverse(quad(0)) in T.beta[1:-1]
            checked += 1
    assert checked == 549


STRIP_OUTCOMES = Path(__file__).parent / "data" / "strip_outcomes.json"
STRIP_OUTCOME_MAPS = {
    "sqrt2": sqrt2_example,
    "golden": golden_example,
    "four": four_example,
    "rational-2": lambda: iet_new(permutation(2, 1), [quad(Fraction(1, 3)), quad(Fraction(2, 3))]),
    "rational-4": lambda: iet_new(permutation(3, 1, 4, 2), [quad(Fraction(1, 4))] * 4),
}
STRIP_OUTCOME_BUDGETS = [*range(1, 60), 100, 200, 400, 10**6]


def strip_outcomes():
    """sha256 of the repr of 6 strip levels, or of "Class: message", per map and budget.

    The stored table was written from a commit whose outcomes were trusted, by
    running this one line from the repository root:

        PYTHONPATH=src:tests python -c "import json, test_suspension as t; print(json.dumps(t.strip_outcomes(), indent=1))" > tests/data/strip_outcomes.json
    """
    table = {}
    for name, example in STRIP_OUTCOME_MAPS.items():
        T = example()
        for max_steps in STRIP_OUTCOME_BUDGETS:
            try:
                text = repr(strip_decomposition(T, 6, max_steps=max_steps))
            except IetlabError as error:
                text = f"{type(error).__name__}: {error}"
            table[f"{name} {max_steps}"] = hashlib.sha256(text.encode()).hexdigest()
    return table


def test_strip_outcomes_match_the_stored_table():
    stored = json.loads(STRIP_OUTCOMES.read_text(encoding="utf-8"))
    assert len(stored) == 315
    assert strip_outcomes() == stored


@pytest.mark.parametrize("call, error, message", [
    (lambda T: strip_decomposition(T, 0), ValueError, "levels must be positive"),
], ids=["strips-zero-levels"])
def test_input_checks(sqrt2_iet, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(sqrt2_iet)
