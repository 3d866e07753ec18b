"""Acceptance checks, one test per criterion.

Each test prints a single summary line; run with ``pytest -s`` to see them
alongside the verdicts.  Tolerances are stated inline; everything not
explicitly a float comparison is exact.
"""

import random
import time
from fractions import Fraction
from itertools import permutations as all_permutations

import mpmath

from ietlab import (
    GroupElement,
    Permutation,
    basic_interval,
    bratteli,
    cone_approx,
    det,
    dimension_group,
    dual_cone_test,
    empirical_measure,
    iet_new,
    irreducible,
    l_sigma,
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
    unique_ergodicity_certificate,
)
from ietlab.cli import main
from helpers import golden_example, random_quad_iet, sqrt2_example

mpmath.mp.dps = 60


def test_criterion_1_strip_example_reproduction():
    # raw K=4 adjusted to 5, level 2 K=7, two strips per level, under 1 s
    start = time.perf_counter()
    levels = strip_decomposition(sqrt2_example(), 2)
    elapsed = time.perf_counter() - start
    assert levels[0].raw_K == 4
    assert levels[0].K == 5
    assert levels[1].K == 7
    assert all(len(level.strips) == 2 for level in levels)
    assert elapsed < 1.0
    print(f"criterion 1 PASS: raw K=4 -> K=5, level 2 K=7, "
          f"2 strips/level, {elapsed:.3f}s")


def test_criterion_2_unimodular_induction_suite():
    # 100 random IETs over Q(sqrt(2)), IDOC to depth 200; exact checks only
    start = time.perf_counter()
    rng = random.Random(20260814)
    for trial in range(100):
        T = random_quad_iet(rng, rng.randint(2, 6), idoc_depth=200)
        step = induce_random_interval(T, rng)
        n = T.n
        for i in range(n):
            combination = sum(
                (step.induced.alpha[j] * step.A[i][j] for j in range(n)), quad(0)
            )
            assert combination == T.alpha[i]
        assert abs(det(step.A)) == 1
        kac = sum(
            (step.induced.alpha[j] * step.return_times[j] for j in range(n)), quad(0)
        )
        assert kac == T.total
        # cone nesting on extreme rays: A carries the standard rays into the cone
        for j in range(n):
            column = [step.A[i][j] for i in range(n)]
            assert all(entry >= 0 for entry in column)
            assert any(entry > 0 for entry in column)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 2 PASS: 100 random IETs, exact alpha=A alpha', "
          f"det +-1, Kac, cone rays, {elapsed:.1f}s")


def induce_random_interval(T, rng):
    from ietlab import induce

    return induce(T, basic_interval(T, rng.randrange(T.n)))


def test_criterion_3_tower_induction_equivalence():
    # zero tolerance: heights equal return times, refinements equal A entries
    for name, T in (("sqrt2", sqrt2_example()), ("golden", golden_example())):
        chain = shrink_sequence(T, quad(0), 10)
        for step in chain:
            partition = towers(step.parent, step.J)
            assert partition.algebra_dims == step.return_times
        # bratteli() recounts every refinement against the original map
        # and raises on any disagreement with the A matrices
        diagram = bratteli(chain)
        assert diagram.edges == tuple(step.A for step in chain)
    print("criterion 3 PASS: tower heights = return times and "
          "refinement counts = A entries, both examples, depth 10")


def test_criterion_4_unique_ergodicity():
    start = time.perf_counter()
    targets = {
        "sqrt2": (sqrt2_example(), mpmath.sqrt(2) - 1),
        "golden": (golden_example(), (mpmath.sqrt(5) - 1) / 2),
    }
    details = []
    for name, (T, target) in targets.items():
        certificate = unique_ergodicity_certificate(shrink_sequence(T, quad(0), 10), 2)
        assert certificate.certified
        assert len(certificate.block_ranges) >= 2
        vector = empirical_measure(T, quad(0), 0, 10**4)
        lam1 = mpmath.mpf(vector.normalized[0].numerator) / vector.normalized[0].denominator
        assert abs(lam1 - target) < 1e-2
        details.append(f"{name} lambda1={float(lam1):.6f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 4 PASS: certificates fired, {', '.join(details)} "
          f"within 1e-2, {elapsed:.1f}s")


def test_criterion_5_suspension_combinatorics():
    checked = 0
    for n in range(2, 8):
        for images in all_permutations(range(1, n + 1)):
            sigma = Permutation(images)
            if not irreducible(sigma):
                continue
            profile = singularity_profile(sigma)
            assert sorted(profile.sigma0) == list(range(n + 1))
            fixed = tuple(j for j in range(1, n) if profile.sigma0[j] == j)
            assert profile.fake_saddles == fixed
            if profile.closed_transversal:
                assert profile.sigma0[n] == 0
            # irreducible sigma leaves no cycle inside {0, n}: every cycle is a singularity
            assert all(any(0 < j < n for j in cycle) for cycle in profile.cycles)
            assert len(profile.singularities) == profile.N
            assert n == 2 * profile.genus + profile.N - 1
            checked += 1
    spot = singularity_profile(permutation(3, 1, 4, 2))
    assert spot.genus == 2
    assert [s.multiplicity for s in spot.singularities] == [2]
    assert spot.singularities[0].prongs == 6
    print(f"criterion 5 PASS: {checked} irreducible permutations n<=7, "
          "spot (3 1 4 2) g=2, one order-2 zero, 6 prongs")


def test_criterion_6_l_sigma():
    for n in range(2, 7):
        for images in all_permutations(range(1, n + 1)):
            matrix = l_sigma(Permutation(images)).matrix
            assert all(matrix[i][j] == -matrix[j][i]
                       for i in range(n) for j in range(n))
    for n in (3, 5, 7):
        for images in all_permutations(range(1, n + 1)):
            assert l_sigma(Permutation(images)).det == 0
    assert l_sigma(permutation(2, 1)).det == 1
    print("criterion 6 PASS: antisymmetry n<=6, det 0 for odd n<=7, "
          "(2 1) det 1")


def _paired_groups(T):
    chain = shrink_sequence(T, quad(0), 10)
    strips = strip_decomposition(T, 10)
    G_induction = dimension_group(chain=chain)
    G_strips = dimension_group(strips=strips)
    W = strip_class_matrix(T, strips[0])
    cone = cone_approx(chain)
    return G_induction, G_strips, W, cone


def test_criterion_7_order_isomorphy():
    for name, T in (("sqrt2", sqrt2_example()), ("golden", golden_example())):
        G_induction, G_strips, W, _ = _paired_groups(T)
        rng = random.Random(97)
        decided = 0
        for _ in range(200):
            v = tuple(rng.randint(-10, 10) for _ in range(T.n))
            verdict_i = positivity(G_induction, GroupElement(0, v), G_induction.depth)
            w = strip_coordinates(W, v)
            verdict_s = positivity(G_strips, GroupElement(0, w), G_strips.depth)
            if verdict_i != "unknown" and verdict_s != "unknown":
                decided += 1
                assert verdict_i == verdict_s
        assert decided > 0
        print(f"criterion 7 PASS ({name}): {decided}/200 decided, 100% agreement")


def test_criterion_8_cone_duality():
    epsilon = Fraction(1, 10**9)
    for name, T in (("sqrt2", sqrt2_example()), ("golden", golden_example())):
        G_induction, _, _, cone = _paired_groups(T)
        rng = random.Random(97)
        positives = 0
        for _ in range(200):
            v = tuple(rng.randint(-10, 10) for _ in range(T.n))
            if positivity(G_induction, GroupElement(0, v), G_induction.depth) == "positive":
                positives += 1
                assert dual_cone_test(GroupElement(0, v), cone, epsilon) == "consistent_positive"
        assert positives > 0
        print(f"criterion 8 PASS ({name}): {positives} positive vectors, "
              "all consistent_positive")


def test_criterion_9_cli_determinism_and_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 2\nsigma = 2 1\nalpha = -1/1+1/1r, 2/1-1/1r\n"
                   "depth = 10\nlevels = 2\n")
    commands = ("orbit", "induce", "shrink", "cone", "measure", "certify",
                "strips", "towers", "bratteli", "group", "render")
    for run in ("a", "b"):
        for command in commands:
            assert main([command, "--config", str(cfg),
                         "--out", str(tmp_path / run)]) == 0
    artifacts = sorted((tmp_path / "a").iterdir())
    assert artifacts
    for artifact in artifacts:
        assert artifact.read_bytes() == (tmp_path / "b" / artifact.name).read_bytes()
    cells = 0
    for artifact in artifacts:
        if artifact.suffix != ".csv":
            continue
        for line in artifact.read_text().splitlines()[1:]:
            kind, _, _, _, exact, _ = line.split(",")
            if kind == "source" or not exact:
                continue
            value = parse_quad(exact, 2)
            assert str(value) == exact or exact == str(int(exact))
            cells += 1
    assert cells > 100
    print(f"criterion 9 PASS: {len(artifacts)} artifacts byte-identical, "
          f"{cells} CSV cells re-parse exactly")
