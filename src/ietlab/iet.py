"""Interval exchange transformations, orbits, and the distinct-orbit test.

Every move of a point or a block under a map steps through one generator, ``_steps``,
on the map's cached integer lattice, and so does every test of a block against the ends
of its interval.  A backward walk is a forward walk of the inverse map ``Iet._inverse``.
``Iet``'s single steps and interval lookups read its first points; ``_lattice_walk`` adds
the window and budget tests, and ``_points`` reads ``QuadReal`` points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Hashable, Iterable, Iterator, Optional, Sequence, Sized

from .errors import ConsistencyViolation, InvalidPermutation, NonPositiveLength, OutOfDomain
from .exactnum import QuadReal, _Lattice, _as_quad, _clipped, _lattice, _point, _positive, quad


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n}, stored as the image tuple (sigma(1), ..., sigma(n))."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = self.images if isinstance(self.images, Sized) else ()  # not a generator, None or an int
        integers = all(type(i) is int for i in images)  # not bool, float or str
        if len(images) < 2 or not integers or sorted(images) != list(range(1, len(images) + 1)):
            raise InvalidPermutation(f"not a permutation of 1..n: {_clipped(str(self.images))}")
        object.__setattr__(self, "images", tuple(self.images))  # a list compares and hashes as its tuple

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
        return next(_points(self, x))[0]

    def image_interval_index(self, x: QuadReal) -> int:
        """The 1-based k with x in I'(k) = [beta'(k-1), beta'(k)), the inverse map's I(k)."""
        return next(_points(self._inverse, x))[0]

    def apply(self, x: QuadReal) -> QuadReal:
        return self.iterate(x, 1)

    def apply_inverse(self, x: QuadReal) -> QuadReal:
        return self.iterate(x, -1)

    def iterate(self, x: QuadReal, power: int) -> QuadReal:
        """T^power(x), converting only that point; x itself, unchecked, for power 0."""
        if not power:
            return x
        if power < 0:
            return self._inverse.iterate(x, -power)
        lattice, (start,) = _encode(self, [x])
        _, p, q = next(islice(_steps(self, lattice, start), power, None))
        return _point(p, q, lattice[1], lattice[0])

    @cached_property
    def _forward_lattice(self) -> _Lattice:
        """The ends beta and moves tau on the integer lattice of ``_lattice``."""
        return _lattice([*self.beta, *self.tau])

    @cached_property
    def _inverse(self) -> Iet:
        """T^-1 = T(sigma^-1, alpha o sigma^-1): ends beta', image ends beta, moves -tau o sigma^-1."""
        inv = self.sigma.inverse()
        return Iet(inv, tuple(self.alpha[i - 1] for i in inv.images), self.beta_prime, self.beta,
                   tuple(-self.tau[i - 1] for i in inv.images))


def _encode(T: Iet, values: Sequence[QuadReal]) -> tuple[_Lattice, list[tuple[int, int]]]:
    """The map's cached lattice extended to hold ``values``, and their pairs; a new denominator
    among the values rescales a copy of the map's pairs, never the cached list."""
    d, D, pairs = T._forward_lattice
    d, scaled, extra = _lattice([_as_quad(v) for v in values], d, D)
    if scaled != D:
        pairs = [(p * scaled // D, q * scaled // D) for p, q in pairs]
    return (d, scaled, pairs), extra


def _steps(T: Iet, lattice: _Lattice, start: tuple[int, int],
           width: Optional[tuple[int, int]] = None) -> Iterator[tuple[int, int, int]]:
    """Yield (i, p, q) for y = x, T(x), T^2(x), ..., y in I(i), x at ``start``.

    i counts the ends at or below y, as bisect_right does; y is stepped only when resumed.
    With a ``width``, resuming to step the block [y, y + width) past the end of I(i) raises
    ConsistencyViolation, so a block is tested only before a step.
    """
    d, D, pairs = lattice
    n = T.n
    edges, moves = pairs[:n + 1], pairs[n + 1:]
    if width is not None:  # the block at y crosses end i when y > end - width
        limits = [(ep - width[0], eq - width[1]) for ep, eq in edges]
    p, q = start
    while True:
        i = n + 1
        while i and _positive(edges[i - 1][0] - p, edges[i - 1][1] - q, d):
            i -= 1
        if not 0 < i <= n:
            raise OutOfDomain(f"{_point(p, q, D, d)} outside [0, {T.total})")
        yield i, p, q
        if width is not None and _positive(p - limits[i][0], q - limits[i][1], d):
            left, right = _point(p, q, D, d), _point(p + width[0], q + width[1], D, d)
            raise ConsistencyViolation(f"block [{left}, {right}) crosses beta({i})")
        p, q = p + moves[i - 1][0], q + moves[i - 1][1]


def _points(T: Iet, x: QuadReal, width: Optional[QuadReal] = None) -> Iterator[tuple[int, QuadReal]]:
    """Yield (i, y) for y = x, T(x), T^2(x), ..., y in I(i).

    With a ``width``, ``_steps`` tests the block [y, y + width) before each step.
    """
    lattice, (start, *block) = _encode(T, [x] if width is None else [x, width])
    d, D, _ = lattice
    for i, p, q in _steps(T, lattice, start, *block):
        yield i, _point(p, q, D, d)


def _lattice_walk(T: Iet, x: QuadReal, stop: int, width: Optional[QuadReal] = None,
                  window: tuple[QuadReal, ...] = (), backward: bool = False,
                  open_left: bool = False) -> tuple[list[int], Optional[QuadReal]]:
    """Walk x, T(x), ... (``T._inverse`` with ``backward``) over at most ``stop`` points of ``_steps``.

    x, the window and the width join the map's lattice.  Each point is tested against the
    window [a, b) ((a, b) with ``open_left``) from T(x) on, or from x on backward; a walk
    back at x without entering it never will.  ``_steps`` tests the block [y, y + width)
    before each step.  Returns the interval indices of the points before the exit, and the
    point that entered the window or None.
    """
    T = T._inverse if backward else T
    lattice, (start, *extra) = _encode(T, [x, *window, *([] if width is None else [width])])
    d, D, _ = lattice
    (ap, aq), (bp, bq) = extra[:2] if window else ((0, 0), (0, 0))
    word: list[int] = []  # zip reads range first, so the walk is never resumed after point stop
    for s, (i, p, q) in zip(range(stop), _steps(T, lattice, start, *extra[len(window):])):
        if window and (s or backward):
            left = _positive(p - ap, q - aq, d) if open_left else not _positive(ap - p, aq - q, d)
            if left and _positive(bp - p, bq - q, d):
                return word, _point(p, q, D, d)
            if s and (p, q) == start:
                return word, None
        word.append(i)
    return word, None


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


def tiles(pieces: Iterable[tuple[Hashable, Hashable]], start: Hashable, end: Hashable) -> bool:
    """True iff the nonempty pieces [left, right), with any hashable ends, cover [start, end) exactly once."""
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
    return tuple(y for _, y in islice(_points(T, T.iterate(x, k_from)), k_to - k_from + 1))


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
    lattice, starts = _encode(T, T.beta[1:T.n])  # one lattice: equal pairs, equal points
    # T is injective, so the first collision in walk order is a visit to some beta(j): keep
    # only each beta(j)'s first visit, (j, 0) until an earlier orbit passes it
    first = {y: (j, 0) for j, y in enumerate(starts, start=1)}
    for i, y in enumerate(starts, start=1):
        for k, (_, p, q) in enumerate(islice(_steps(T, lattice, y), depth + 1)):
            if (p, q) in first:
                if first[p, q] < (i, k):
                    return IdocResult(False, depth, (first[p, q], (i, k)), "orbit collision")
                first[p, q] = (i, k)
    return IdocResult(True, depth)
