"""Interval exchange transformations, orbits, and the distinct-orbit test."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal, Optional

from .errors import InvalidPermutation, NonPositiveLength, OutOfDomain
from .exactnum import QuadReal, _as_quad, quad


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n}, stored as the image tuple (sigma(1), ..., sigma(n))."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n < 2 or sorted(self.images) != list(range(1, n + 1)):
            raise InvalidPermutation(f"not a permutation of 1..n: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(tuple(inv))


def permutation(*images: int) -> Permutation:
    return Permutation(tuple(images))


def irreducible(sigma: Permutation) -> bool:
    """True iff no proper prefix {1..k} is invariant under sigma."""
    top = 0
    for k, img in enumerate(sigma.images[:-1], start=1):
        top = max(top, img)
        if top == k:
            return False
    return True


@dataclass(frozen=True)
class Iet:
    """Exchange of n intervals: x -> x + tau(i) on I(i) = [beta(i-1), beta(i))."""

    sigma: Permutation
    alpha: tuple[QuadReal, ...]
    beta: tuple[QuadReal, ...]
    beta_prime: tuple[QuadReal, ...]
    tau: tuple[QuadReal, ...]

    @property
    def n(self) -> int:
        return self.sigma.n

    @property
    def total(self) -> QuadReal:
        return self.beta[self.n]

    def interval_index(self, x: QuadReal) -> int:
        """The 1-based i with x in I(i); raises OutOfDomain otherwise."""
        if x < self.beta[0] or x >= self.total:
            raise OutOfDomain(f"{x} outside [0, {self.total})")
        for i in range(1, self.n + 1):
            if x < self.beta[i]:
                return i
        raise OutOfDomain(f"{x} outside [0, {self.total})")  # pragma: no cover

    def image_interval_index(self, x: QuadReal) -> int:
        """The 1-based k with x in I'(k) = [beta'(k-1), beta'(k))."""
        if x < self.beta_prime[0] or x >= self.total:
            raise OutOfDomain(f"{x} outside [0, {self.total})")
        for k in range(1, self.n + 1):
            if x < self.beta_prime[k]:
                return k
        raise OutOfDomain(f"{x} outside [0, {self.total})")  # pragma: no cover

    def apply(self, x: QuadReal) -> QuadReal:
        return x + self.tau[self.interval_index(x) - 1]

    @cached_property
    def _inverse_tau(self) -> tuple[QuadReal, ...]:
        """tau(sigma^-1(k)) for k = 1..n: the translation that lands on I'(k)."""
        inv = self.sigma.inverse()
        return tuple(self.tau[inv(k) - 1] for k in range(1, self.n + 1))

    def apply_inverse(self, x: QuadReal) -> QuadReal:
        return x - self._inverse_tau[self.image_interval_index(x) - 1]

    def iterate(self, x: QuadReal, power: int) -> QuadReal:
        step = self.apply if power >= 0 else self.apply_inverse
        for _ in range(abs(power)):
            x = step(x)
        return x


def iet_new(sigma: Permutation, alpha: Iterable[QuadReal]) -> Iet:
    """Construct T(sigma, alpha) with the displayed beta/beta'/tau sums."""
    lengths = tuple(_as_quad(a) for a in alpha)
    if len(lengths) != sigma.n:
        raise InvalidPermutation(
            f"{len(lengths)} lengths for a permutation of {sigma.n} symbols")
    if any(not a > 0 for a in lengths):
        raise NonPositiveLength("every interval length must be positive")
    n = sigma.n
    inv = sigma.inverse()
    beta = [quad(0)]
    for a in lengths:
        beta.append(beta[-1] + a)
    beta_prime = [quad(0)]
    for k in range(1, n + 1):
        beta_prime.append(beta_prime[-1] + lengths[inv(k) - 1])
    tau = tuple(beta_prime[sigma(i) - 1] - beta[i - 1] for i in range(1, n + 1))
    return Iet(sigma, lengths, tuple(beta), tuple(beta_prime), tau)


def iet_apply(T: Iet, x: QuadReal,
              direction: Literal["forward", "inverse"] = "forward") -> QuadReal:
    return T.apply(x) if direction == "forward" else T.apply_inverse(x)


def orbit(T: Iet, x: QuadReal, k_from: int, k_to: int) -> tuple[QuadReal, ...]:
    """Exact points T^k(x) for k in [k_from, k_to]."""
    if k_from > k_to:
        raise ValueError("empty exponent range")
    points = [T.iterate(x, k_from)]
    for _ in range(k_from, k_to):
        points.append(T.apply(points[-1]))
    return tuple(points)


@dataclass(frozen=True)
class OrbitPoint:
    """T^power(beta(base)); base 0 denotes the point 0, base n the point beta(n)."""

    base: int
    power: int
    value: QuadReal


def orbit_point(T: Iet, base: int, power: int) -> OrbitPoint:
    if not 0 <= base <= T.n:
        raise OutOfDomain(f"no separation point with index {base}")
    if base == T.n and power != 0:
        raise OutOfDomain("beta(n) is not in the domain of T")
    return OrbitPoint(base, power, T.iterate(T.beta[base], power))


@dataclass(frozen=True)
class IdocResult:
    """Outcome of the depth-bounded distinct-orbit check."""

    verified: bool
    depth: int
    witness: Optional[tuple[tuple[int, int], tuple[int, int]]] = None
    reason: str = ""

    @property
    def status(self) -> str:
        return f"verified_to_depth({self.depth})" if self.verified else "failed"


def idoc_check(T: Iet, depth: int) -> IdocResult:
    """Search T^k(beta(i)), 1 <= i < n, 0 <= k <= depth, for collisions.

    A collision between distinct (i, k) pairs (self-collisions included)
    disproves the infinite-distinct-orbit condition; absence of collisions
    verifies it to the given depth only.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not irreducible(T.sigma):
        return IdocResult(False, depth, None, "sigma is reducible")
    seen: dict[QuadReal, tuple[int, int]] = {}
    for i in range(1, T.n):
        x = T.beta[i]
        for k in range(depth + 1):
            if x in seen:
                return IdocResult(False, depth, (seen[x], (i, k)),
                                  "orbit collision")
            seen[x] = (i, k)
            if k < depth:
                x = T.apply(x)
    return IdocResult(True, depth)
