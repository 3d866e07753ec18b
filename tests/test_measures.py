import re
import tracemalloc
from fractions import Fraction

import mpmath
import pytest

from ietlab import (
    MixedRadicand,
    OutOfDomain,
    cone_approx,
    empirical_measure,
    iet_new,
    permutation,
    quad,
    shrink_sequence,
    unique_ergodicity_certificate,
)
from helpers import count_compares, four_example, golden_example, sqrt2_example, to_mp


def chain_of(T, depth):
    return shrink_sequence(T, quad(0), depth)


def test_cone_rays_are_normalized(sqrt2_iet):
    cone = cone_approx(chain_of(sqrt2_iet, 10))
    assert cone.depth == 10
    for ray in cone.rays:
        assert sum(ray, Fraction(0)) == 1
        assert all(value >= 0 for value in ray)


def test_cone_converges_to_lebesgue_direction(sqrt2_iet, golden_iet):
    # the examples are uniquely ergodic; deep cones pinch to one cluster
    for T, target in ((sqrt2_iet, mpmath.sqrt(2) - 1),
                      (golden_iet, (mpmath.sqrt(5) - 1) / 2)):
        cone = cone_approx(chain_of(T, 15))
        assert cone.nu_estimate == 1
        assert cone.clusters == ((0, 1),)
        for ray in cone.rays:
            assert abs(mpmath.mpf(ray[0].numerator) / ray[0].denominator - target) < 1e-6


def test_cone_frozen_rays(sqrt2_iet, golden_iet):
    assert cone_approx(chain_of(sqrt2_iet, 15)).rays == (
        (Fraction(33461, 80782), Fraction(47321, 80782)),
        (Fraction(80782, 195025), Fraction(114243, 195025)),
    )
    assert cone_approx(chain_of(golden_iet, 15)).rays[0] == (
        Fraction(196418, 317811), Fraction(121393, 317811),
    )


@pytest.mark.parametrize("epsilon, error, message", [
    (0.5, TypeError, "epsilon must be an int or Fraction, not float"),
    ("1/2", TypeError, "epsilon must be an int or Fraction, not str"),
    (None, TypeError, "epsilon must be an int or Fraction, not NoneType"),
    (Fraction(-1), ValueError, "epsilon must be nonnegative"),
    (-1, ValueError, "epsilon must be nonnegative"),
], ids=["float", "str", "none", "negative-fraction", "negative-int"])
def test_cluster_epsilon_is_exact_and_nonnegative(sqrt2_iet, epsilon, error, message):
    chain = shrink_sequence(sqrt2_iet, quad(0), 4)
    with pytest.raises(error, match=f"^{message}$"):
        cone_approx(chain, epsilon)
    assert cone_approx(chain, 0).clusters == cone_approx(chain, Fraction(0)).clusters == ((0,), (1,))


def test_cluster_epsilon_widens_clusters(sqrt2_iet):
    chain = chain_of(sqrt2_iet, 6)
    tight = cone_approx(chain, Fraction(1, 10**12))
    loose = cone_approx(chain, Fraction(1, 2))
    assert tight.nu_estimate >= loose.nu_estimate
    assert loose.nu_estimate == 1


def test_certificate_sqrt2(sqrt2_iet):
    certificate = unique_ergodicity_certificate(chain_of(sqrt2_iet, 10), 2)
    assert certificate.certified
    assert certificate.required_blocks == 2
    assert certificate.block_ranges == ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))


def test_certificate_golden(golden_iet):
    certificate = unique_ergodicity_certificate(chain_of(golden_iet, 10), 2)
    assert certificate.certified
    assert certificate.block_ranges[0] == (0, 2)


def test_certificate_unknown_when_blocks_run_out(sqrt2_iet):
    certificate = unique_ergodicity_certificate(chain_of(sqrt2_iet, 3), 9)
    assert not certificate.certified


def test_empirical_measure_rational_exact():
    T = iet_new(permutation(2, 1), [quad(Fraction(1, 3)), quad(Fraction(2, 3))])
    vector = empirical_measure(T, quad(0), 0, 2)
    assert vector.normalized == (Fraction(1, 3), Fraction(2, 3))
    assert vector.raw == (Fraction(1, 2), Fraction(1, 1))


def test_empirical_measure_sqrt2_frozen(sqrt2_iet):
    vector = empirical_measure(sqrt2_iet, quad(0), 0, 10**4)
    assert vector.raw == (Fraction(4143, 10000), Fraction(2929, 5000))
    assert vector.normalized == (Fraction(4143, 10001), Fraction(5858, 10001))
    assert abs(to_mp(quad(vector.normalized[0])) - (mpmath.sqrt(2) - 1)) < 1e-2


def test_empirical_measure_window_offset(sqrt2_iet):
    # shifting the window start only drops the early visits
    head = empirical_measure(sqrt2_iet, quad(0), 0, 10)
    tail = empirical_measure(sqrt2_iet, quad(0), 5, 10)
    assert sum(head.normalized) == 1
    assert sum(tail.normalized) == 1


def test_empirical_measure_domain_check(sqrt2_iet):
    with pytest.raises(OutOfDomain):
        empirical_measure(sqrt2_iet, quad(2), 0, 5)


def test_empirical_measure_tests_the_domain_in_the_walk(sqrt2_iet):
    # the walk kernel's texts: the point alone names the domain, and the radicand is read first
    for point, error, message in ((quad(1), OutOfDomain, "1/1 outside [0, 1/1)"),
                                  (quad(-1), OutOfDomain, "-1/1 outside [0, 1/1)"),
                                  (quad(-1, 1, 3), MixedRadicand, "sqrt(3) and sqrt(2) cannot mix")):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            empirical_measure(sqrt2_iet, point, 0, 5)


def test_empirical_measure_accepts_fraction_point(sqrt2_iet):
    vector = empirical_measure(sqrt2_iet, Fraction(1, 10), 0, 50)
    assert sum(vector.normalized) == 1


def test_empirical_measure_rejects_a_float_point(sqrt2_iet):
    with pytest.raises(TypeError):
        empirical_measure(sqrt2_iet, 0.25, 0, 10)


def test_empirical_measure_compares_few_times(monkeypatch):
    # the visit count walks on integers and leaves the domain test to the walk, so no
    # QuadReal is compared (6 calls with a QuadReal domain check; 13,497 when the count
    # walked on QuadReal)
    maps = [sqrt2_example(), golden_example(), four_example()]
    calls = count_compares(monkeypatch)
    for T in maps:
        empirical_measure(T, 0, 0, 2000)
    assert calls[0] == 0


def test_empirical_measure_counts_in_constant_memory(sqrt2_iet):
    # visits are counted as the walk yields them: a stored word of 200,001 entries takes 1.6 MB
    tracemalloc.start()
    try:
        vector = empirical_measure(sqrt2_iet, quad(0), 0, 2 * 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(vector.normalized) == 1
    assert peak < 2**20


@pytest.mark.parametrize("call, error, message", [
    (lambda T: cone_approx([]), ValueError, "cone_approx needs a nonempty chain"),
    (lambda T: empirical_measure(T, quad(0), -1, 10), ValueError, "window start must be nonnegative"),
    (lambda T: empirical_measure(T, quad(0), 0, 0), ValueError, "window length must be positive"),
    (lambda T: unique_ergodicity_certificate(shrink_sequence(T, quad(0), 2), 0), ValueError,
     "required_blocks must be positive"),
    (lambda T: unique_ergodicity_certificate([], 1), ValueError, "certificate needs a nonempty chain"),
], ids=["cone-empty", "measure-negative-start", "measure-zero-length", "certificate-zero-blocks",
        "certificate-empty"])
def test_input_checks(sqrt2_iet, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(sqrt2_iet)
