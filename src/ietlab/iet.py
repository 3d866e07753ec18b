"""Interval exchange transformations, orbits, and the distinct-orbit test.

Every orbit of a point and every block flowed under a map goes through one
generator, ``Iet.walk``: it yields each point with its interval index,
steps forward or backward, and guards a block against crossing a
separation point.  ``_lattice_walk`` runs the same walk in integers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (ConsistencyViolation, InvalidPermutation, MixedRadicand, NonPositiveLength,
                     OutOfDomain)
from .exactnum import QuadReal, _as_quad, _clipped, _trusted, quad


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n}, stored as the image tuple (sigma(1), ..., sigma(n))."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n < 2 or sorted(self.images) != list(range(1, n + 1)):
            raise InvalidPermutation(f"not a permutation of 1..n: {_clipped(str(self.images))}")

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
        i = bisect_right(self.beta, x)
        if not 0 < i <= self.n:
            raise OutOfDomain(f"{x} outside [0, {self.total})")
        return i

    def image_interval_index(self, x: QuadReal) -> int:
        """The 1-based k with x in I'(k) = [beta'(k-1), beta'(k))."""
        k = bisect_right(self.beta_prime, x)
        if not 0 < k <= self.n:
            raise OutOfDomain(f"{x} outside [0, {self.total})")
        return k

    def apply(self, x: QuadReal) -> QuadReal:
        return x + self.tau[self.interval_index(x) - 1]

    @cached_property
    def _inverse_tau(self) -> tuple[QuadReal, ...]:
        """tau(sigma^-1(k)) for k = 1..n: the translation that lands on I'(k)."""
        inv = self.sigma.inverse()
        return tuple(self.tau[inv(k) - 1] for k in range(1, self.n + 1))

    def apply_inverse(self, x: QuadReal) -> QuadReal:
        return x - self._inverse_tau[self.image_interval_index(x) - 1]

    @cached_property
    def _forward_lattice(self) -> tuple[int, int, list[tuple[int, int]]]:
        """The ends beta and moves tau on the integer lattice of ``_lattice``."""
        return _lattice([*self.beta, *self.tau])

    @cached_property
    def _backward_lattice(self) -> tuple[int, int, list[tuple[int, int]]]:
        """The ends beta' and moves -tau(sigma^-1(k)) on the integer lattice of ``_lattice``."""
        return _lattice([*self.beta_prime, *(-t for t in self._inverse_tau)])

    def walk(self, x: QuadReal, width: Optional[QuadReal] = None,
             backward: bool = False) -> Iterator[tuple[int, QuadReal]]:
        """Yield (i, y) for y = x, T(x), T^2(x), ..., with y in I(i).

        With ``backward`` the walk follows T^-1 and i indexes the image
        interval I'(i).  With a ``width`` the block [y, y + width) is walked,
        and asking to step it across a separation point raises
        ConsistencyViolation.
        """
        if backward:
            index, ends, name = self.image_interval_index, self.beta_prime, "beta'"
        else:
            index, ends, name = self.interval_index, self.beta, "beta"
        while True:
            i = index(x)
            yield i, x
            if width is not None and not x + width <= ends[i]:
                raise ConsistencyViolation(f"block [{x}, {x + width}) crosses {name}({i})")
            x = x - self._inverse_tau[i - 1] if backward else x + self.tau[i - 1]

    def iterate(self, x: QuadReal, power: int) -> QuadReal:
        step = self.apply if power >= 0 else self.apply_inverse
        for _ in range(abs(power)):
            x = step(x)
        return x


def _positive(p: int, q: int, d: int) -> bool:
    """True iff p + q*sqrt(d) > 0, where q == 0 or d > 1 is square-free.

    p*p == q*q*d has no solution with q != 0, so the two terms never cancel.
    """
    if q >= 0:
        return p > 0 or (q > 0 and (p >= 0 or q * q * d > p * p))
    return p > 0 and p * p > q * q * d


def _point(p: int, q: int, D: int, d: int) -> QuadReal:
    """The number (p + q*sqrt(d))/D."""
    return _trusted(Fraction(p, D), Fraction(q, D), d)


def _lattice(values: Sequence[QuadReal], d: int = 0,
             D: int = 1) -> tuple[int, int, list[tuple[int, int]]]:
    """(d, D, pairs): each value as (p, q) meaning (p + q*sqrt(d))/D; d and D extend the given ones."""
    radicands = list(dict.fromkeys(r for r in (d, *(v.d for v in values)) if r))
    if len(radicands) > 1:
        raise MixedRadicand(f"sqrt({radicands[1]}) and sqrt({radicands[0]}) cannot mix")
    D = lcm(*{D, *(c.denominator for v in values for c in (v.a, v.b))})  # set: 3.11 never reuses 20-tuples
    return (radicands[0] if radicands else 0, D,
            [(v.a.numerator * D // v.a.denominator, v.b.numerator * D // v.b.denominator) for v in values])


def _lattice_walk(T: Iet, x: QuadReal, stop: int, width: Optional[QuadReal] = None,
                  window: tuple[QuadReal, ...] = (), backward: bool = False,
                  open_left: bool = False) -> tuple[list[int], Optional[QuadReal]]:
    """Walk x, T(x), ... (T^-1 with ``backward``) over at most ``stop`` points, in integers.

    x, the window and the width join the map's cached lattice; a new denominator among them
    rescales a copy of the map's pairs.  Each point is located (OutOfDomain as in ``interval_index``),
    then tested against the window [a, b) ((a, b) with ``open_left``) from T(x) on, or from
    x on backward; a walk back at x without entering it never will.  Before each step, the
    block [y, y + width) must not cross the end of its interval.  Returns the interval
    indices of the points before the exit, and the point that entered the window or None.
    """
    d, D, pairs = T._backward_lattice if backward else T._forward_lattice
    d, scaled, extra = _lattice([x, *window, *([] if width is None else [width])], d, D)
    if scaled != D:
        k, D = scaled // D, scaled
        pairs = [(p * k, q * k) for p, q in pairs]
    n, name = T.n, "beta'" if backward else "beta"
    edges, moves, start = pairs[:n + 1], pairs[n + 1:], extra[0]
    (ap, aq), (bp, bq) = extra[1:3] if window else ((0, 0), (0, 0))
    if width is not None:
        limits = [(p - extra[-1][0], q - extra[-1][1]) for p, q in edges]
    p, q = start
    word: list[int] = []
    for s in range(stop):
        i = n + 1  # the number of ends at or below the point, as bisect_right counts
        while i and _positive(edges[i - 1][0] - p, edges[i - 1][1] - q, d):
            i -= 1
        if not 0 < i <= n:
            raise OutOfDomain(f"{_point(p, q, D, d)} outside [0, {T.total})")
        if window and (s or backward):
            left = _positive(p - ap, q - aq, d) if open_left else not _positive(ap - p, aq - q, d)
            if left and _positive(bp - p, bq - q, d):
                return word, _point(p, q, D, d)
            if s and (p, q) == start:
                return word, None
        word.append(i)
        if width is not None and s + 1 < stop and _positive(p - limits[i][0], q - limits[i][1], d):
            y = _point(p, q, D, d)
            raise ConsistencyViolation(f"block [{y}, {y + width}) crosses {name}({i})")
        p, q = p + moves[i - 1][0], q + moves[i - 1][1]
    return word, None


def _lattice_orbit(T: Iet, start: tuple[int, int], steps: int) -> list[tuple[int, int]]:
    """The pairs of T(y), ..., T^steps(y), where ``start`` is y's pair on the map's forward lattice."""
    d, D, pairs = T._forward_lattice
    moves, (p, q) = pairs[T.n + 1:], start
    orbit = []
    for i in _lattice_walk(T, _point(p, q, D, d), steps)[0]:
        p, q = p + moves[i - 1][0], q + moves[i - 1][1]
        orbit.append((p, q))
    return orbit


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


def tiles(pieces: Iterable[tuple[QuadReal, QuadReal]], start: QuadReal, end: QuadReal) -> bool:
    """True iff the nonempty half-open pieces [left, right) cover [start, end) exactly once."""
    pieces = list(pieces)
    follow = dict(pieces)  # walk from start, each left end to its right end, each piece once
    edge, used = start, 0
    while edge in follow:
        edge, used = follow.pop(edge), used + 1
    return edge == end and used == len(pieces)


def orbit(T: Iet, x: QuadReal, k_from: int, k_to: int) -> tuple[QuadReal, ...]:
    """Exact points T^k(x) for k in [k_from, k_to]."""
    if k_from > k_to:
        raise ValueError("empty exponent range")
    return tuple(y for _, y in islice(T.walk(T.iterate(x, k_from)), k_to - k_from + 1))


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
    seen: dict[tuple[int, int], tuple[int, int]] = {}  # all points at one D: equal pairs, equal points
    for i, y in enumerate(T._forward_lattice[2][1:T.n], start=1):
        orbit, k, chunk = [y], 0, 16
        while orbit:  # in doubling chunks, so that an early collision ends the walk early
            for y in orbit:
                if y in seen:
                    return IdocResult(False, depth, (seen[y], (i, k)), "orbit collision")
                seen[y], k = (i, k), k + 1
            orbit, chunk = _lattice_orbit(T, y, min(chunk, depth + 1 - k)), 2 * chunk
    return IdocResult(True, depth)
