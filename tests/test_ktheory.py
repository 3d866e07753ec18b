import dataclasses
import random
import re
from fractions import Fraction
from itertools import islice, permutations as all_permutations

import pytest

from ietlab import (
    DEFAULT_MAX_STEPS,
    ConsistencyViolation,
    GroupElement,
    HorizonExceedsDepth,
    Permutation,
    QuadReal,
    ReturnTimeExceeded,
    ShapeViolation,
    basic_interval,
    bratteli,
    coinvariant_shift,
    cone_approx,
    dimension_group,
    dual_cone_test,
    export_bratteli,
    iet_new,
    irreducible,
    l_sigma,
    mat_mul,
    orbit_classes,
    parse_quad,
    permutation,
    positivity,
    quad,
    shrink_sequence,
    singularity_profile,
    strip_class_matrix,
    strip_coordinates,
    strip_decomposition,
    towers,
    whole_interval,
)
import ietlab.ktheory
from ietlab.ktheory import _verify_edge
from helpers import four_example, golden_example, quad_walk, rank, sqrt2_example


def test_towers_sqrt2(sqrt2_iet):
    partition = towers(sqrt2_iet, basic_interval(sqrt2_iet, 1))
    assert partition.algebra_dims == (2, 1)
    assert [t.height for t in partition.towers] == [2, 1]


def test_towers_golden(golden_iet):
    partition = towers(golden_iet, basic_interval(golden_iet, 1))
    assert partition.algebra_dims == (3, 2)


def test_towers_whole_interval(sqrt2_iet):
    partition = towers(sqrt2_iet, whole_interval(sqrt2_iet))
    assert partition.algebra_dims == (1, 1)


def test_tower_floors_tile_domain(sqrt2_iet):
    partition = towers(sqrt2_iet, basic_interval(sqrt2_iet, 1))
    floors = sorted(
        (left, right) for tower in partition.towers for left, right in tower.floors
    )
    edge = quad(0)
    for left, right in floors:
        assert left == edge
        edge = right
    assert edge == sqrt2_iet.total


def test_tower_heights_satisfy_kac(sqrt2_iet):
    partition = towers(sqrt2_iet, basic_interval(sqrt2_iet, 1))
    total = sum(
        ((t.base_right - t.base_left) * t.height for t in partition.towers), quad(0)
    )
    assert total == sqrt2_iet.total


def test_bratteli_edges_are_chain_matrices(sqrt2_iet):
    chain = shrink_sequence(sqrt2_iet, quad(0), 6)
    diagram = bratteli(chain)
    assert len(diagram.levels) == len(chain) + 1
    assert diagram.edges == tuple(step.A for step in chain)
    assert diagram.levels[0].labels == ("L0_V1", "L0_V2")


def _moved_entry(chain):
    (a, b), (c, d) = chain[2].A
    chain[2] = dataclasses.replace(chain[2], A=((a + 1, b), (c - 1, d)))


def _shifted_origin(k, shift):
    def edit(chain):
        chain[k] = dataclasses.replace(chain[k], origin=chain[k].origin + shift)
    return edit


@pytest.mark.parametrize("y0, edit, max_steps, error, message", [
    (Fraction(1, 10), _moved_entry, DEFAULT_MAX_STEPS, ConsistencyViolation,
     "tower walk column 1 gives [1, 0], matrix says [2, -1]"),
    (Fraction(1, 10), None, 2, ReturnTimeExceeded, "no return within 2 steps"),
    (Fraction(1, 10), _shifted_origin(0, Fraction(1, 100)), DEFAULT_MAX_STEPS,
     ConsistencyViolation, "walk block straddles a previous tower base"),
    (Fraction(1, 2), _shifted_origin(2, Fraction(-1, 100)), DEFAULT_MAX_STEPS,
     ConsistencyViolation, "walk block straddles the previous window"),
], ids=["moved-entry", "max-steps", "previous-base", "previous-window"])
def test_bratteli_recount_rejects_a_broken_chain(sqrt2_iet, y0, edit, max_steps, error, message):
    chain = shrink_sequence(sqrt2_iet, quad(y0), 4)
    if edit:
        edit(chain)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        bratteli(chain, max_steps)


@pytest.mark.parametrize("prev, max_steps, error, message", [
    ((0, 1), 0, ReturnTimeExceeded, "no return within 0 steps"),
    ((0, 1), 1, ConsistencyViolation, "block [0/1, 1/2) crosses beta(1)"),
    ((0, Fraction(1, 4), 1), 1, ConsistencyViolation, "walk block straddles a previous tower base"),
], ids=["last-point", "crossing", "straddle-first"])
def test_recount_tests_a_crossing_after_the_straddles_and_before_a_step(sqrt2_iet, prev, max_steps,
                                                                         error, message):
    # the base [0, 1/2) of sqrt2 crosses beta(1) = sqrt2 - 1 at once
    A = tuple((1,) for _ in prev[1:])
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _verify_edge(sqrt2_iet, A, [quad(v) for v in prev], [quad(0), quad(Fraction(1, 2))], max_steps)


@pytest.mark.parametrize("example, R", [(sqrt2_example, 7), (golden_example, 8)], ids=["sqrt2", "golden"])
def test_bratteli_budget_allows_a_return_after_exactly_max_steps(example, R):
    # R is the longest return under T over the chain's levels, as in induce's budget
    chain = shrink_sequence(example(), quad(Fraction(1, 10)), 4)
    assert len(bratteli(chain, R).edges) == 4
    with pytest.raises(ReturnTimeExceeded, match=f"^no return within {R - 1} steps$"):
        bratteli(chain, R - 1)


def test_bratteli_recount_adds_few_times(monkeypatch):
    # one lookup on absolute base ends per walked block, no per-step change of coordinates,
    # and each block's right end summed once per step (7,135 when the walk summed it too)
    chains = [shrink_sequence(T, quad(Fraction(1, 10)), 8)
              for T in (sqrt2_example(), golden_example(), four_example())]
    calls = 0

    def counting(op):
        def counted(self, other):
            nonlocal calls
            calls += 1
            return op(self, other)
        return counted

    monkeypatch.setattr(QuadReal, "__add__", counting(QuadReal.__add__))
    monkeypatch.setattr(QuadReal, "__sub__", counting(QuadReal.__sub__))
    for chain in chains:
        bratteli(chain)
    assert calls <= 5_000


def test_towers_add_few_times(monkeypatch):
    # each floor's right end is summed once: 944 when the walk summed it for its crossing test too
    cases = [(T, basic_interval(T, i)) for T in (sqrt2_example(), golden_example(), four_example())
             for i in range(T.n)]
    calls = 0
    add = QuadReal.__add__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return add(self, other)

    monkeypatch.setattr(QuadReal, "__add__", counted)
    for T, Y in cases:
        towers(T, Y)
    assert calls <= 720


@pytest.mark.parametrize("example, window, factor, message", [
    (sqrt2_example, None, 2, "block [0/1, -2/1+2/1r) crosses beta(1)"),
    (four_example, 1, Fraction(11, 10), "block [-3/10+11/10r, 23/15) crosses beta(3)"),
    (four_example, 2, Fraction(1, 2), "block [2/3+1/2r, -7/12+3/2r) crosses beta(3)"),
    (four_example, 3, 2, "block [3/2, -5/6+2/1r) crosses beta(4)"),
], ids=["sqrt2-whole", "four-1-wide", "four-2-narrow", "four-3-wide"])
def test_towers_reject_a_floor_crossing_a_separation_point(monkeypatch, example, window, factor,
                                                          message):
    # the induced lengths are scaled, so some floor below a tower's top straddles beta(i)
    induce = ietlab.ktheory.induce

    def scaled(T, Y, max_steps):
        step = induce(T, Y, max_steps=max_steps)
        alpha = [a * factor for a in step.induced.alpha]
        return dataclasses.replace(step, induced=iet_new(step.induced.sigma, alpha))

    monkeypatch.setattr(ietlab.ktheory, "induce", scaled)
    T = example()
    Y = whole_interval(T) if window is None else basic_interval(T, window)
    with pytest.raises(ConsistencyViolation, match=f"^{re.escape(message)}$"):
        towers(T, Y)


def test_bratteli_export_format(sqrt2_iet):
    chain = shrink_sequence(sqrt2_iet, quad(0), 2)
    dot = export_bratteli(bratteli(chain))
    lines = dot.splitlines()
    assert lines[0] == "digraph bratteli {"
    assert lines[1] == "  rankdir=TB;"
    assert lines[-1] == "}"
    assert '  L0_V1 -> L1_V1 [label="1"];' in lines
    assert dot.endswith("}\n")


def test_dimension_group_sources(sqrt2_iet):
    chain = shrink_sequence(sqrt2_iet, quad(0), 10)
    G = dimension_group(chain=chain)
    assert G.source == "induction_chain"
    assert G.depth == 9
    assert G.matrices == tuple(step.A for step in chain[1:])
    strips = strip_decomposition(sqrt2_iet, 4)
    H = dimension_group(strips=strips)
    assert H.source == "strip_chain"
    assert H.matrices == tuple(lvl.incidence_to_previous for lvl in strips[1:])
    with pytest.raises(ValueError):
        dimension_group()
    with pytest.raises(ValueError):
        dimension_group(chain=chain, strips=strips)


def test_positivity_verdicts(sqrt2_iet):
    chain = shrink_sequence(sqrt2_iet, quad(0), 10)
    G = dimension_group(chain=chain)
    assert positivity(G, GroupElement(0, (0, 0)), 5) == "zero"
    assert positivity(G, GroupElement(0, (1, 1)), 5) == "positive"
    assert positivity(G, GroupElement(0, (-2, -1)), 5) == "nonpositive_witness"
    assert positivity(G, GroupElement(0, (5, -3)), 9) in (
        "positive", "nonpositive_witness", "unknown",
    )


def test_positivity_eventually_decides_mixed_vector(sqrt2_iet):
    chain = shrink_sequence(sqrt2_iet, quad(0), 10)
    G = dimension_group(chain=chain)
    # (2, -1) has positive pairing with Lebesgue, so pushing decides it
    assert positivity(G, GroupElement(0, (2, -1)), 1) == "unknown"
    assert positivity(G, GroupElement(0, (2, -1)), 9) == "positive"


def test_positivity_horizon_guard(sqrt2_iet):
    chain = shrink_sequence(sqrt2_iet, quad(0), 5)
    G = dimension_group(chain=chain)
    with pytest.raises(HorizonExceedsDepth):
        positivity(G, GroupElement(3, (1, 1)), 3)


def test_dual_cone_test(sqrt2_iet):
    chain = shrink_sequence(sqrt2_iet, quad(0), 10)
    cone = cone_approx(chain)
    assert dual_cone_test(GroupElement(0, (1, 1)), cone) == "consistent_positive"
    assert dual_cone_test(GroupElement(0, (-1, -1)), cone) == "consistent_negative"
    assert dual_cone_test(GroupElement(0, (0, 0)), cone) == "boundary"
    with pytest.raises(HorizonExceedsDepth):
        dual_cone_test(GroupElement(99, (1, 1)), cone)
    for misfit in (GroupElement(0, (1, 1, -50)), GroupElement(0, (1,)), GroupElement(-1, (1, 1))):
        with pytest.raises(ValueError, match="does not fit the cone"):
            dual_cone_test(misfit, cone)


def test_dual_cone_epsilon_controls_boundary(sqrt2_iet):
    chain = shrink_sequence(sqrt2_iet, quad(0), 10)
    cone = cone_approx(chain)
    nearly = GroupElement(0, (1, -1))
    strict = dual_cone_test(nearly, cone, epsilon=Fraction(1, 10**9))
    wide = dual_cone_test(nearly, cone, epsilon=Fraction(1, 2))
    assert wide == "boundary"
    assert strict in ("consistent_positive", "consistent_negative", "boundary")


@pytest.mark.parametrize("epsilon, error, message", [
    (0.5, TypeError, "epsilon must be an int or Fraction, not float"),
    (Fraction(-1), ValueError, "epsilon must be nonnegative"),
    (-1, ValueError, "epsilon must be nonnegative"),
], ids=["float", "negative-fraction", "negative-int"])
def test_dual_cone_epsilon_is_exact_and_nonnegative(sqrt2_iet, epsilon, error, message):
    # a negative tolerance called both (1, -1) and (-1, 1) consistent_positive
    cone = cone_approx(shrink_sequence(sqrt2_iet, quad(0), 10))
    verdicts = {}
    for vector in ((1, -1), (-1, 1)):
        with pytest.raises(error, match=f"^{message}$"):
            dual_cone_test(GroupElement(0, vector), cone, epsilon)
        verdicts[vector] = dual_cone_test(GroupElement(0, vector), cone, 0)  # 0 is allowed
    assert verdicts == {(1, -1): "consistent_negative", (-1, 1): "consistent_positive"}


def test_l_sigma_two_interval():
    result = l_sigma(permutation(2, 1))
    assert result.matrix == ((0, -1), (1, 0))
    assert result.det == 1
    assert result.invertible


def test_l_sigma_identity_is_zero():
    result = l_sigma(permutation(1, 2, 3))
    assert result.matrix == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert result.det == 0
    assert not result.invertible


def test_l_sigma_rank_is_twice_the_genus():
    # rank L_sigma = 2g, and its kernel has one dimension fewer than there are singularities
    checked = 0
    for n in range(2, 8):
        for images in all_permutations(range(1, n + 1)):
            sigma = Permutation(images)
            if not irreducible(sigma):
                continue
            profile = singularity_profile(sigma)
            r = rank(l_sigma(sigma).matrix)
            assert r == 2 * profile.genus
            assert n - r == len(profile.singularities) - 1
            checked += 1
    assert checked == 3996


def test_l_sigma_antisymmetry():
    for images in ((3, 1, 4, 2), (2, 3, 1), (4, 3, 2, 1)):
        matrix = l_sigma(permutation(*images)).matrix
        n = len(matrix)
        assert all(matrix[i][j] == -matrix[j][i] for i in range(n) for j in range(n))


def test_coinvariant_shift_formula():
    assert coinvariant_shift(permutation(2, 1), 1) == (0, 1)
    assert coinvariant_shift(permutation(2, 1), 2) == (-1, 0)


@pytest.mark.parametrize("i", [0, -1, 3])
def test_coinvariant_shift_rejects_an_index_outside_the_intervals(i):
    with pytest.raises(ValueError, match=r"^i must be an interval index in 1\.\.2, not "):
        coinvariant_shift(permutation(2, 1), i)


def test_translations_are_l_sigma_transpose_times_lengths():
    # tau = L_sigma^T alpha: the class shift of interval i is column i of L_sigma
    rng = random.Random(13)
    checked = 0
    for n in range(2, 7):
        for images in all_permutations(range(1, n + 1)):
            sigma = Permutation(images)
            L = l_sigma(sigma).matrix
            alpha = [quad(Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                          Fraction(rng.randint(1, 9), rng.randint(1, 9)), 2) for _ in range(n)]
            T = iet_new(sigma, alpha)
            for i in range(1, n + 1):
                assert coinvariant_shift(sigma, i) == tuple(row[i - 1] for row in L)
                assert T.tau[i - 1] == sum((L[j][i - 1] * a for j, a in enumerate(alpha)), quad(0))
                checked += 1
    assert checked == 5038


def test_orbit_classes_walk(sqrt2_iet):
    classes = orbit_classes(sqrt2_iet, 3)
    assert classes == ((0, 0), (0, 1), (-1, 1), (-1, 2))
    # each step adds the shift of the interval the point passed through
    x = quad(0)
    for k in range(3):
        i = sqrt2_iet.interval_index(x)
        shift = coinvariant_shift(sqrt2_iet.sigma, i)
        assert tuple(a + s for a, s in zip(classes[k], shift)) == classes[k + 1]
        x = sqrt2_iet.apply(x)


def test_orbit_classes_rejects_negative_depth(sqrt2_iet):
    assert orbit_classes(sqrt2_iet, 0) == ((0, 0),)
    with pytest.raises(ValueError, match="^depth must be nonnegative$"):
        orbit_classes(sqrt2_iet, -1)


def test_strip_class_matrix_frozen(sqrt2_iet, golden_iet):
    levels = strip_decomposition(sqrt2_iet, 1)
    assert strip_class_matrix(sqrt2_iet, levels[0]) == ((-1, 3), (1, -2))
    glevels = strip_decomposition(golden_iet, 1)
    assert strip_class_matrix(golden_iet, glevels[0]) == ((-1, 2), (2, -3))


@pytest.mark.parametrize("images, alpha, n, N", [
    ((3, 1, 2), ("1/3+3/11r", "10/3-3/8r", "5/3-1/3r"), 3, 2),
    ((2, 3, 4, 5, 1), ("2+1/12r", "12/11+4r", "2-4/3r", "1/3+3/4r", "7/9-3/10r"), 5, 4),
], ids=["genus-1-n-3", "genus-1-n-5"])
def test_strip_class_matrix_names_the_rank_deficit(images, alpha, n, N):
    # floors end on the orbit of 0 or the right edge only: their classes span 2g < n dimensions
    T = iet_new(permutation(*images), [parse_quad(a, 2) for a in alpha])
    profile = singularity_profile(T.sigma)
    assert (profile.N, profile.genus) == (N, 1)
    level = strip_decomposition(T, 1)[0]
    bottoms = [strip.floors[0] for strip in level.strips]
    classes = orbit_classes(T, max(max(f.left_exponent, f.right_exponent) for f in bottoms))
    ends = [(classes[f.left_exponent], classes[f.right_exponent] if f.right_exponent else (1,) * n)
            for f in bottoms]
    assert rank([[right[i] - left[i] for left, right in ends] for i in range(n)]) == 2
    message = (f"strip class matrix has det 0: 2g = 2 < n = {n}, as sigma_0 has N = {N} cycles "
               "and the strips are bounded by the singularity at 0 only")
    with pytest.raises(ConsistencyViolation, match=f"^{re.escape(message)}$"):
        strip_class_matrix(T, level)


def test_strip_class_matrix_keeps_its_text_with_one_singularity(sqrt2_iet):
    level = strip_decomposition(sqrt2_iet, 1)[0]
    twice = dataclasses.replace(level, strips=(level.strips[0],) * 2)
    with pytest.raises(ConsistencyViolation, match="^strip class matrix is not unimodular$"):
        strip_class_matrix(sqrt2_iet, twice)


def test_strip_class_matrices_chain(sqrt2_iet, golden_iet):
    for T, depth in ((sqrt2_iet, 4), (golden_iet, 8), (four_example(), 6)):
        levels = strip_decomposition(T, depth)
        mats = [strip_class_matrix(T, lvl) for lvl in levels]
        for j in range(len(levels) - 1):
            assert mats[j] == mat_mul(mats[j + 1], levels[j + 1].incidence_to_previous)


def test_lebesgue_trace_of_classes(sqrt2_iet, golden_iet):
    # tau(v) = sum v_i alpha_i is the Lebesgue trace in interval coordinates
    for T, depth in ((sqrt2_iet, 8), (golden_iet, 8), (four_example(), 6)):
        def tau(v):
            return sum((a * c for a, c in zip(T.alpha, v)), quad(0))

        classes = orbit_classes(T, 60)
        for k, (_, x) in enumerate(islice(quad_walk(T, quad(0)), 61)):
            assert tau(classes[k]) == x
        for level in strip_decomposition(T, depth):
            W = strip_class_matrix(T, level)
            for j, strip in enumerate(level.strips):
                width = tau([row[j] for row in W])
                assert all(floor.right - floor.left == width for floor in strip.floors)


def test_strip_coordinates_integral(sqrt2_iet, golden_iet):
    levels = strip_decomposition(sqrt2_iet, 1)
    W = strip_class_matrix(sqrt2_iet, levels[0])
    assert strip_coordinates(W, (1, 1)) == (5, 2)
    # heights of the level-1 strips recover the all-ones class
    heights = tuple(s.height for s in levels[0].strips)
    assert strip_coordinates(W, (1, 1)) == heights
    for T, depth in ((sqrt2_iet, 10), (golden_iet, 10), (four_example(), 6)):
        n = T.n
        vectors = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        vectors += [(1,) * n, tuple(range(-2, n - 2))]
        for level in strip_decomposition(T, depth):
            W = strip_class_matrix(T, level)
            for v in vectors:
                w = strip_coordinates(W, v)
                assert tuple(sum(a * b for a, b in zip(row, w)) for row in W) == v
    with pytest.raises(ValueError, match="matrix is singular"):
        strip_coordinates(((1, 2), (2, 4)), (1, 1))
    with pytest.raises(ConsistencyViolation, match="strip coordinates came out fractional"):
        strip_coordinates(((2, 1), (0, 1)), (0, 1))
    four = four_example()
    W4 = strip_class_matrix(four, strip_decomposition(four, 1)[0])
    for matrix, vector in ((W, (1,)), (W, (1, 1, 1)), (W4, (1, 0, 1))):
        with pytest.raises(ValueError, match="^vector does not fit the matrix$"):
            strip_coordinates(matrix, vector)


@pytest.mark.parametrize("incidence", [((1, 0), (0, 1)), ((1, 1), (1, 1)), None],
                         ids=["identity", "two-units", "missing"])
def test_strip_group_rejects_bad_incidence(sqrt2_iet, incidence):
    levels = list(strip_decomposition(sqrt2_iet, 3))
    levels[1] = dataclasses.replace(levels[1], incidence_to_previous=incidence)
    with pytest.raises(ShapeViolation):
        dimension_group(strips=levels)


def sqrt2_group():
    return dimension_group(chain=shrink_sequence(sqrt2_example(), quad(0), 3))


@pytest.mark.parametrize("call, error, message", [
    (lambda: bratteli([]), ValueError, "bratteli needs a nonempty chain"),
    (lambda: dimension_group(chain=[]), ValueError, "chain must be nonempty"),
    (lambda: dimension_group(strips=()), ValueError, "strips must be nonempty"),
    (lambda: positivity(sqrt2_group(), GroupElement(0, (1, 0)), 0), ValueError, "horizon must be positive"),
    (lambda: positivity(sqrt2_group(), GroupElement(0, (1,)), 1), ValueError,
     "element does not fit the group"),
    (lambda: positivity(sqrt2_group(), GroupElement(-1, (1, 0)), 1), ValueError,
     "element does not fit the group"),
], ids=["bratteli-empty", "group-empty-chain", "group-empty-strips", "positivity-horizon-zero",
        "positivity-short-vector", "positivity-negative-level"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
