"""Shared oracles for the test suite.

Two independent cross-checks back the exact code paths: a 60-digit mpmath
simulation of the same maps, and a naive iterate-until-return loop that
knows nothing about induction bookkeeping.
"""

from fractions import Fraction

import mpmath

from ietlab import Iet, Permutation, QuadReal, idoc_check, iet_new, quad, quad_sign, radical

mpmath.mp.dps = 60


def to_mp(x: QuadReal) -> mpmath.mpf:
    value = mpmath.mpf(x.a.numerator) / x.a.denominator
    if x.b:
        value += mpmath.mpf(x.b.numerator) / x.b.denominator * mpmath.sqrt(x.d)
    return value


class FloatIet:
    """Reference simulation over mpmath floats, built only from the definitions."""

    def __init__(self, images, lengths):
        self.images = images
        self.n = len(images)
        self.beta = [mpmath.mpf(0)]
        for value in lengths:
            self.beta.append(self.beta[-1] + value)
        inverse = [0] * self.n
        for i, img in enumerate(images, start=1):
            inverse[img - 1] = i
        beta_prime = [mpmath.mpf(0)]
        for k in range(1, self.n + 1):
            beta_prime.append(beta_prime[-1] + lengths[inverse[k - 1] - 1])
        self.tau = [beta_prime[images[i - 1] - 1] - self.beta[i - 1]
                    for i in range(1, self.n + 1)]

    def apply(self, x):
        for i in range(1, self.n + 1):
            if self.beta[i - 1] <= x < self.beta[i]:
                return x + self.tau[i - 1]
        raise ValueError(f"{x} outside domain")


def naive_first_return(T: Iet, left: QuadReal, right: QuadReal, x: QuadReal,
                       limit: int = 100000) -> tuple[int, QuadReal]:
    """Iterate T until the orbit re-enters [left, right); no induction machinery."""
    y = x
    for r in range(1, limit + 1):
        y = T.apply(y)
        if quad_sign(y - left) >= 0 and quad_sign(right - y) > 0:
            return r, y
    raise AssertionError(f"no return within {limit} steps")


def random_irreducible(rng, n: int) -> Permutation:
    while True:
        images = list(range(1, n + 1))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        if all(set(images[:k]) != set(range(1, k + 1)) for k in range(1, n)):
            return sigma


def random_quad_iet(rng, n: int, idoc_depth: int = 200) -> Iet:
    """Random irreducible IET over Q(sqrt(2)) with IDOC checked to idoc_depth."""
    while True:
        sigma = random_irreducible(rng, n)
        lengths = []
        for _ in range(n):
            while True:
                a = Fraction(rng.randint(1, 12), rng.randint(1, 12))
                b = Fraction(rng.randint(-4, 4), rng.randint(1, 12))
                value = quad(a, b, 2)
                if quad_sign(value) > 0:
                    lengths.append(value)
                    break
        T = iet_new(sigma, lengths)
        if idoc_check(T, idoc_depth).verified:
            return T


def sqrt2_example() -> Iet:
    r2 = radical(2)
    return iet_new(Permutation((2, 1)), [r2 - 1, 2 - r2])


def golden_example() -> Iet:
    r5 = radical(5)
    return iet_new(Permutation((2, 1)), [(r5 - 1) / 2, (3 - r5) / 2])


def four_example() -> Iet:
    """A 4-interval map with a closed transversal, so the strip code sees n > 2."""
    r2 = radical(2)
    return iet_new(Permutation((3, 1, 4, 2)),
                   [r2 - 1, quad(Fraction(1, 2)), 2 - r2, quad(Fraction(1, 3))])
