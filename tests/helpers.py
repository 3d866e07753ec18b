"""Shared oracles for the test suite.

Seven independent cross-checks back the exact code paths: the sign of
a + b*sqrt(d) decided in ``Fraction`` arithmetic, a 60-digit mpmath
simulation of the same maps, a naive iterate-until-return loop that knows
nothing about induction bookkeeping, a Rauzy-Veech step that induces by
arithmetic on (sigma, alpha) without walking an orbit, the induction step
checks summed as ``QuadReal`` products, single steps and a walk that
locate ``QuadReal`` points by bisection and add their moves, the
distinct-orbit search keyed by ``QuadReal`` points, and the strip levels
with every order test a ``QuadReal`` comparison.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import islice
from typing import Iterator, Optional

import mpmath

from ietlab import (ConsistencyViolation, DepthExceeded, Iet, IdocResult, InductionStep, NotVerifiedIDOC,
                    OrbitPoint, OutOfDomain, Permutation, QuadReal, column_sums, det, idoc_check, iet_new,
                    irreducible, orbit_point, quad, quad_sign, radical)
from ietlab.exactnum import _point
from ietlab.iet import _encode, _steps, tiles
from ietlab.intmat import IntMatrix, freeze
from ietlab.suspension import Floor, Marker, MarkerTable, Strip, StripLevel, _first_depth, _incidence

mpmath.mp.dps = 60


def _fsign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d), decided purely in rational arithmetic."""
    if b == 0:
        return _fsign(a)
    if a == 0:
        return _fsign(b)
    sa, sb = _fsign(a), _fsign(b)
    if sa == sb:
        return sa
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:
        return 0
    return sa if lhs > rhs else sb


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
        y = quad_apply(T, y)
        if quad_sign(y - left) >= 0 and quad_sign(right - y) > 0:
            return r, y
    raise AssertionError(f"no return within {limit} steps")


def rauzy_veech(T: Iet) -> tuple[Permutation, tuple[QuadReal, ...], IntMatrix, OrbitPoint]:
    """One right Rauzy-Veech step: (sigma', alpha', A, right end of the window [0, right)).

    The top interval n and the bottom interval b = sigma^-1(n) both end at
    |alpha|.  The shorter is cut off the longer, and one symbol moves: when
    the top wins, I(b) returns through I(n) and its image now follows that
    of I(n); otherwise the right alpha_n of I(b) returns through I(n) and
    lands where I(n) did.  A counts visits as ``induce`` does.
    """
    n, sigma, alpha = T.n, list(T.sigma.images), list(T.alpha)
    b = T.sigma.inverse()(n)
    words = [[i] for i in range(1, n + 1)]
    if alpha[n - 1] > alpha[b - 1]:
        alpha[n - 1] -= alpha[b - 1]
        sigma = [s + (s > sigma[n - 1]) for s in sigma]
        sigma[b - 1] = sigma[n - 1] + 1
        words[b - 1].append(n)
        right = orbit_point(T, b - 1, 1)
    else:
        top = alpha.pop()
        alpha[b - 1:b] = [alpha[b - 1] - top, top]
        sigma[b:] = [sigma[n - 1]] + sigma[b:n - 1]
        words[b:] = [[b, n]] + words[b:n - 1]
        right = orbit_point(T, n - 1, 0)
    A = freeze([[word.count(i) for word in words] for i in range(1, n + 1)])
    return Permutation(tuple(sigma)), tuple(alpha), A, right


def rank(matrix) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    found = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(found, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        for r in range(found + 1, len(rows)):
            factor = rows[r][col] / rows[found][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[found])]
        found += 1
    return found


def count_calls(monkeypatch, method: str) -> list[int]:
    """Count calls of the QuadReal method ``method`` from now on; the returned list holds the count."""
    calls = [0]
    original = getattr(QuadReal, method)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(QuadReal, method, counted)
    return calls


def count_compares(monkeypatch) -> list[int]:
    return count_calls(monkeypatch, "_compare")


def random_irreducible(rng, n: int) -> Permutation:
    while True:
        images = list(range(1, n + 1))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        if all(set(images[:k]) != set(range(1, k + 1)) for k in range(1, n)):
            return sigma


def random_quad_iet(rng, n: int, idoc_depth: int = 200, d: int = 2, closed: bool = False) -> Iet:
    """Random irreducible IET over Q(sqrt(d)) with IDOC checked to idoc_depth (not at all for 0).

    d = 0 gives rational lengths.  With ``closed``, sigma(n) = sigma(1) - 1, so the suspension
    has a closed transversal through 0.
    """
    while True:
        sigma = random_irreducible(rng, n)
        while closed and sigma(n) != sigma(1) - 1:
            sigma = random_irreducible(rng, n)
        lengths = []
        for _ in range(n):
            while True:
                a = Fraction(rng.randint(1, 12), rng.randint(1, 12))
                b = Fraction(rng.randint(-4, 4), rng.randint(1, 12))
                value = quad(a, b, d)
                if quad_sign(value) > 0:
                    lengths.append(value)
                    break
        T = iet_new(sigma, lengths)
        if not idoc_depth or idoc_check(T, idoc_depth).verified:
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


def verify_step_by_quad_sums(step: InductionStep, landings: list[QuadReal]) -> None:
    """``induce``'s step checks with alpha = A alpha' and Kac summed as QuadReal products."""
    T, induced, A = step.parent, step.induced, step.A
    n = T.n
    if column_sums(A) != step.return_times:
        raise ConsistencyViolation("column sums disagree with return times")
    if abs(det(A)) != 1:
        raise ConsistencyViolation(f"transition matrix has det {det(A)}")
    for i in range(n):
        combo = quad(0)
        for j in range(n):
            combo = combo + A[i][j] * induced.alpha[j]
        if combo != T.alpha[i]:
            raise ConsistencyViolation("alpha != A alpha'")
    kac = quad(0)
    for j in range(n):
        kac = kac + step.return_times[j] * induced.alpha[j]
    if kac != T.total:
        raise ConsistencyViolation("Kac identity fails")
    pieces = ((landings[j], landings[j] + induced.alpha[j]) for j in range(n))
    if not tiles(pieces, step.J.left, step.J.right):
        raise ConsistencyViolation("return landings do not tile J")


def quad_interval_index(T: Iet, x: QuadReal) -> int:
    """The 1-based i with x in I(i), by bisection over the ``QuadReal`` ends beta."""
    i = bisect_right(T.beta, x)
    if not 0 < i <= T.n:
        raise OutOfDomain(f"{x} outside [0, {T.total})")
    return i


def quad_image_interval_index(T: Iet, x: QuadReal) -> int:
    """The 1-based k with x in I'(k), by bisection over the ``QuadReal`` ends beta'."""
    k = bisect_right(T.beta_prime, x)
    if not 0 < k <= T.n:
        raise OutOfDomain(f"{x} outside [0, {T.total})")
    return k


def inverse_tau(T: Iet) -> tuple[QuadReal, ...]:
    """tau(sigma^-1(k)) for k = 1..n: the translation that lands on I'(k)."""
    inv = T.sigma.inverse()
    return tuple(T.tau[inv(k) - 1] for k in range(1, T.n + 1))


def quad_apply(T: Iet, x: QuadReal) -> QuadReal:
    return x + T.tau[quad_interval_index(T, x) - 1]


def quad_apply_inverse(T: Iet, x: QuadReal) -> QuadReal:
    return x - inverse_tau(T)[quad_image_interval_index(T, x) - 1]


def quad_iterate(T: Iet, x: QuadReal, power: int) -> QuadReal:
    step = quad_apply if power >= 0 else quad_apply_inverse
    for _ in range(abs(power)):
        x = step(T, x)
    return x


def quad_walk(T: Iet, x: QuadReal, width: Optional[QuadReal] = None,
              backward: bool = False) -> Iterator[tuple[int, QuadReal]]:
    """Yield (i, y) for y = x, T(x), T^2(x), ..., with y in I(i).

    With ``backward`` the walk follows T^-1 and i indexes the image
    interval I'(i).  With a ``width`` the block [y, y + width) is walked,
    and asking to step it across a separation point raises
    ConsistencyViolation, naming the ends of the walked map as beta.
    """
    if backward:
        index, ends, moves = quad_image_interval_index, T.beta_prime, tuple(-t for t in inverse_tau(T))
    else:
        index, ends, moves = quad_interval_index, T.beta, T.tau
    while True:
        i = index(T, x)
        yield i, x
        if width is not None and not x + width <= ends[i]:
            raise ConsistencyViolation(f"block [{x}, {x + width}) crosses beta({i})")
        x = x + moves[i - 1]


def idoc_by_quad_walk(T: Iet, depth: int) -> IdocResult:
    """``idoc_check`` stepped by ``quad_walk`` and keyed by ``QuadReal`` points."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not irreducible(T.sigma):
        return IdocResult(False, depth, None, "sigma is reducible")
    seen: dict[QuadReal, tuple[int, int]] = {}
    for i in range(1, T.n):
        for k, (_, x) in enumerate(islice(quad_walk(T, T.beta[i]), depth + 1)):
            if x in seen:
                return IdocResult(False, depth, (seen[x], (i, k)), "orbit collision")
            seen[x] = (i, k)
    return IdocResult(True, depth)


class QuadOrbitCache:
    """``suspension._OrbitCache`` with each orbit point of 0 stored as a ``QuadReal`` as it is
    walked, and every extreme and marker found by ``QuadReal`` comparison."""

    def __init__(self, T: Iet, max_steps: int) -> None:
        self.T = T
        self.max_steps = max_steps
        self.lattice, (zero, *separation) = _encode(T, [quad(0), *T.beta[1:-1]])
        self.orbit = islice(_steps(T, self.lattice, zero), max_steps + 1)
        self.points: list[tuple[int, QuadReal]] = []
        self.separation_pairs = set(separation)
        self.separation_orbits = [islice(_steps(T, self.lattice, y), 1, None) for y in separation]
        self.distinct_depth = self.marker_depth = 0
        self.extremes: dict[tuple[bool, int], list[tuple[int, QuadReal]]] = {}

    def point(self, k: int) -> tuple[int, QuadReal]:
        """(i, T^k(0)) with T^k(0) in I(i)."""
        d, D, *_ = self.lattice
        while len(self.points) <= k:
            step = next(self.orbit, None)
            if step is None:
                raise DepthExceeded(f"orbit of 0 longer than {self.max_steps} steps")
            i, p, q = step
            if (p, q) in self.separation_pairs:
                raise NotVerifiedIDOC(f"orbit of 0 hits a separation point at exponent {len(self.points)}")
            self.points.append((i, _point(p, q, D, d)))
        return self.points[k]

    def deepen(self, K: int) -> tuple[MarkerTable, MarkerTable]:
        if self.distinct_depth <= K:
            steps = K + 1 - self.distinct_depth
            for orbit in self.separation_orbits:
                if any((p, q) in self.separation_pairs for _, p, q in islice(orbit, steps)):
                    raise NotVerifiedIDOC(
                        f"distinct-orbit check failed below depth {K + 1}: orbit collision")
            self.distinct_depth = K + 1
        T, extremes = self.T, self.extremes
        for k in range(self.marker_depth + 1, K + 1):
            (i, x), (_, y) = self.point(k), self.point(k + 1)
            for key, kx in (((False, i), (k, x)), ((True, T.sigma(i)), (k + 1, y))):
                pair = extremes.setdefault(key, [kx, kx])
                if pair[0][1] < kx[1]:
                    pair[0] = kx
                elif kx[1] < pair[1][1]:
                    pair[1] = kx
        self.marker_depth = K
        tables: list[MarkerTable] = []
        for primed in (False, True):
            for i in range(1, T.n + 1):
                if (primed, i) not in extremes:
                    raise ConsistencyViolation(f"no orbit point in interval {i} at depth {K}")
            tables.append({(delta, i): Marker(delta, i, *extremes[(primed, i + delta)][delta], primed)
                           for i in range(T.n + 1) for delta in (0, 1) if 0 < i + delta <= T.n})
        plain, prime = tables
        if {T.apply(m.value) for m in plain.values()} != {m.value for m in prime.values()}:
            raise ConsistencyViolation("primed markers are not the T-images of the markers")
        return plain, prime


def quad_flow_strip(T: Iet, cache: QuadOrbitCache, bottom: tuple[int, int],
                    spans: list[tuple[QuadReal, QuadReal]]) -> tuple[list[Floor], list[int]]:
    """``suspension._flow_strip`` with the landed and inside tests on ``QuadReal`` floor ends."""
    left_exponent, right_exponent = bottom
    floors: list[Floor] = []
    word: list[int] = []
    for step in range(cache.max_steps):
        i, left = cache.point(left_exponent + step)
        right = cache.point(right_exponent + step)[1] if right_exponent + step else T.total
        landed = any(lo <= left and right <= hi for lo, hi in spans[max(i - 2, 0):i])
        inside = right <= T.beta[i]
        floors.append(Floor(left, right, left_exponent + step, right_exponent + step,
                            i if inside or not landed else None))
        if landed:
            return floors, word
        if not inside and step + 1 < cache.max_steps:
            raise ConsistencyViolation(f"block [{left}, {right}) crosses beta({i})")
        word.append(i)
    raise DepthExceeded(f"strip did not close within {cache.max_steps} floors")


def quad_level_strips(T: Iet, cache: QuadOrbitCache, plain: MarkerTable, prime: MarkerTable) -> list[Strip]:
    """``suspension._level_strips`` with the bottoms sorted by their ``QuadReal`` left ends."""
    n = T.n
    spans = [(plain[(0, j)].value, plain[(1, j)].value) for j in range(1, n)]
    j0 = T.sigma(1) - 1
    bottoms = [(0, plain[(1, 0)].exponent), (plain[(0, n)].exponent, 0)]
    bottoms += [(prime[(0, j)].exponent, prime[(1, j)].exponent) for j in range(1, n) if j != j0]
    if len(bottoms) != n:
        raise ConsistencyViolation(f"expected {n} strip bottoms, found {len(bottoms)}")
    bottoms.sort(key=lambda bottom: cache.point(bottom[0])[1])
    strips = []
    for index, bottom in enumerate(bottoms, start=1):
        floors, word = quad_flow_strip(T, cache, bottom, spans)
        strips.append(Strip(index=index, floors=tuple(floors), visit_word=tuple(word)))
    if not tiles(((f.left, f.right) for s in strips for f in s.floors), quad(0), T.total):
        raise ConsistencyViolation("strip floors do not tile the interval")
    return strips


def quad_next_depth(T: Iet, cache: QuadOrbitCache, plain: MarkerTable, prime: MarkerTable) -> tuple[int, int]:
    """``suspension._next_depth`` with the span and column tests on ``QuadReal`` marker values."""
    n = T.n
    start = max(prime[(d, i)].exponent for d in (0, 1) for i in range(1, n))
    left_col = plain[(1, 0)].value
    right_col = plain[(0, n)].value
    for m in range(start + 1, cache.max_steps):
        i, z = cache.point(m)
        for j in range(max(i - 1, 1), min(i + 1, n)):
            if plain[(0, j)].value < z < plain[(1, j)].value:
                return m, m + 1 if T.sigma(i) == (n if i == j else 1) else m
        if z < left_col or right_col < z:
            return m, m
    raise DepthExceeded(f"no landing below {cache.max_steps} orbit steps")


def quad_strip_decomposition(T: Iet, levels: int, max_steps: int) -> tuple[StripLevel, ...]:
    """``strip_decomposition`` on the ``QuadReal`` oracle pieces above, for an irreducible T with a
    closed transversal and positive ``levels`` and ``max_steps``: the argument checks are not repeated.

    ``_first_depth`` and ``_incidence`` compare no points, so the oracle shares them.
    """
    cache = QuadOrbitCache(T, max_steps)
    out: list[StripLevel] = []
    markers: MarkerTable = {}
    primed: MarkerTable = {}
    for level in range(1, levels + 1):
        if level == 1:
            raw, K = _first_depth(T, cache)
        else:
            raw, K = quad_next_depth(T, cache, markers, primed)
            if K <= out[-1].K:
                raise ConsistencyViolation("strip depth failed to increase")
        markers, primed = cache.deepen(K)
        strips = quad_level_strips(T, cache, markers, primed)
        incidence: IntMatrix | None = None
        if out:
            strips, incidence = _incidence(out[-1].strips, strips)
        out.append(StripLevel(level=level, raw_K=raw, K=K, markers=tuple(markers.values()),
                              primed_markers=tuple(primed.values()), strips=tuple(strips),
                              incidence_to_previous=incidence))
    return tuple(out)
