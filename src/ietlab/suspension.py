"""Suspension-surface combinatorics: singularity data and strip decompositions.

The first half computes the boundary permutation sigma_0 on {0..n}, its
cycles, singularity multiplicities, prong counts, genus, and the fake-saddle
and closed-transversal conditions, all exactly from the permutation.

The second half builds the vertical strip decomposition of the suspension square.  Orbit
points of 0 up to a depth K select, in every interval, an extreme left and right marker;
the markers bound n strips that flow forward under T, floor by floor, until they run into
the marked span of some separation point.  Raising K refines the decomposition, and
consecutive levels are connected by an incidence matrix that is the identity plus one
off-diagonal unit: exactly one strip splits, and one of the two pieces joins an existing
strip.  Markers and floors read their orbit points of 0 from one table, the layer's only
walks, which each level deepens past the last depth.  The table holds each point as the
integer pair that the walk yields, and every order test compares those pairs.  Tiling and
incidence match floors by exponent, as the orbit of 0 is injective below its first return.
A point becomes a ``QuadReal`` once, where a marker, a floor or an error text shows it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import islice, product

from .errors import (
    ClosedTransversalRequired,
    ConsistencyViolation,
    DepthExceeded,
    NotVerifiedIDOC,
    Reducible,
    ShapeViolation,
)
from .exactnum import QuadReal, _clipped, _point, _positive, quad
from .iet import Iet, Permutation, _encode, _steps, irreducible, tiles
from .induction import DEFAULT_MAX_STEPS
from .intmat import IntMatrix, freeze, identity_plus_unit


@dataclass(frozen=True)
class Singularity:
    """One cycle of sigma_0 with its translation-surface data.

    ``adjusted_length`` counts the cycle members after omitting the
    endpoints 0 and n; the zero of the holomorphic form has multiplicity
    ``adjusted_length - 1`` and the singular leaf has ``2k + 2`` prongs.
    A multiplicity of 0 marks a regular (merely marked) point.
    """

    cycle: tuple[int, ...]
    adjusted_length: int
    multiplicity: int
    prongs: int


@dataclass(frozen=True)
class SingularityProfile:
    """Combinatorial singularity data of the suspension of a permutation.

    ``sigma0`` is the boundary permutation on {0..n} as an image tuple and
    ``cycles`` are its cycles, ``N`` of them, and each is a singularity:
    irreducible sigma has sigma(1) != 1 and sigma(n) != n, so sigma_0(0) lies
    in 1..n-1 and sigma_0(n) != n, and no cycle lies inside {0, n}.  The
    multiplicities sum to (n - 1) - N = 2 genus - 2.
    ``closed_transversal`` is sigma(n) = sigma(1) - 1, ``fake_saddles``
    lists the j with sigma(j + 1) = sigma(j) + 1, and
    ``endpoints_share_cycle`` says whether 0 and n lie on one cycle.
    """

    sigma0: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]
    N: int
    singularities: tuple[Singularity, ...]
    genus: int
    closed_transversal: bool
    fake_saddles: tuple[int, ...]
    endpoints_share_cycle: bool


def _sigma0_images(sigma: Permutation) -> tuple[int, ...]:
    n = sigma.n
    inv = sigma.inverse()
    images = [inv(1) - 1] + [0] * n
    for j in range(1, n + 1):
        images[j] = n if j == inv(n) else inv(sigma(j) + 1) - 1
    return tuple(images)


def _cycles_of(images: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    seen = [False] * len(images)
    cycles = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        j = images[start]
        while j != start:
            cycle.append(j)
            seen[j] = True
            j = images[j]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def singularity_profile(sigma: Permutation) -> SingularityProfile:
    """Boundary permutation, its cycles, multiplicities, prongs, genus, and the flags."""
    if not irreducible(sigma):
        raise Reducible(f"sigma {_clipped(str(sigma.images))} is reducible")
    images = _sigma0_images(sigma)
    cycles = _cycles_of(images)
    n = sigma.n
    singularities = []
    for cycle in cycles:
        kept = [j for j in cycle if j not in (0, n)]
        k = len(kept) - 1
        singularities.append(
            Singularity(cycle=cycle, adjusted_length=len(kept), multiplicity=k, prongs=2 * k + 2)
        )
    shared = any(0 in cycle and n in cycle for cycle in cycles)
    return SingularityProfile(
        sigma0=images,
        cycles=cycles,
        N=len(cycles),
        singularities=tuple(singularities),
        genus=(sum(s.multiplicity for s in singularities) + 2) // 2,
        closed_transversal=sigma(n) == sigma(1) - 1,
        fake_saddles=tuple(j for j in range(1, n) if sigma(j + 1) == sigma(j) + 1),
        endpoints_share_cycle=shared,
    )


@dataclass(frozen=True)
class Marker:
    """Extreme orbit point of 0 within one interval.

    ``delta`` 0 marks the supremum of the orbit points in interval ``i``,
    ``delta`` 1 the infimum of those in interval ``i + 1``; primed markers
    use the image intervals and the exponent window shifted by one.
    """

    delta: int
    i: int
    exponent: int
    value: QuadReal
    primed: bool


@dataclass(frozen=True)
class Floor:
    """One horizontal slice [left, right) of a strip.

    Endpoint exponents refer to the orbit of 0; a right exponent of 0
    denotes the total length (the right edge of the square), which flows
    like the left edge does because the transversal is closed.  ``interval``
    is the interval containing the floor, or None when the floor straddles
    a separation point (possible only for the top floor).
    """

    left: QuadReal
    right: QuadReal
    left_exponent: int
    right_exponent: int
    interval: int | None


@dataclass(frozen=True)
class Strip:
    """Maximal vertical stack of floors; consecutive floors are T-images.

    Left boundaries are approached from the right (the + side of the split
    orbit of 0), right boundaries from the left (the - side).  The visit
    word lists the interval of every floor below the top.
    """

    index: int
    floors: tuple[Floor, ...]
    visit_word: tuple[int, ...]

    @property
    def height(self) -> int:
        return len(self.floors)


@dataclass(frozen=True)
class StripLevel:
    """One level of the strip decomposition.

    ``raw_K`` is the orbit depth before the boundary-interval adjustment,
    ``K`` the depth actually used.  ``incidence_to_previous`` is None at the
    first level and an identity-plus-one-unit matrix afterwards, with rows
    indexed by this level's strips and columns by the previous level's.
    """

    level: int
    raw_K: int
    K: int
    markers: tuple[Marker, ...]
    primed_markers: tuple[Marker, ...]
    strips: tuple[Strip, ...]
    incidence_to_previous: IntMatrix | None


# Markers keyed (delta, i), inserted in (i, delta) order.
MarkerTable = dict[tuple[int, int], Marker]
_TOTAL = -1  # the key of the right edge, which a right exponent of 0 stands for


class _OrbitCache:
    """Orbits of 0 and of beta(1..n-1): the strip layer's only walks, deepened level by level.

    Each orbit is one live ``_steps`` walk; depths, markers and floors read the orbit of 0
    from ``point`` as its (i, p, q) and order it by ``less``.  T is injective.  So the first
    repeat of the orbit of 0 is a return to 0, whose predecessor T^-1(0) = beta(sigma^-1(1) - 1)
    is a separation point for irreducible sigma: the separation guard leaves no repeat to test.
    And T^k beta(i) = T^m beta(j), k > m, holds exactly when T^(k-m) beta(i) = beta(j): the
    distinct-orbit test resumes each separation orbit and only looks for separation points.
    """

    def __init__(self, T: Iet, max_steps: int) -> None:
        self.T = T
        self.max_steps = max_steps
        self.lattice, (zero, *separation) = _encode(T, [quad(0), *T.beta[1:-1]])
        self.orbit = islice(_steps(T, self.lattice, zero), max_steps + 1)
        self.points: list[tuple[int, int, int]] = []
        self.values: dict[int, QuadReal] = {}
        self.separation_pairs = set(separation)
        self.separation_orbits = [islice(_steps(T, self.lattice, y), 1, None) for y in separation]
        self.distinct_depth = self.marker_depth = 0
        # (primed, i) -> [highest, lowest] exponent of a point in I(i), or in I'(i) when primed
        self.extremes: dict[tuple[bool, int], list[int]] = {}

    def point(self, k: int) -> tuple[int, int, int]:
        """(i, p, q): T^k(0) = (p + q*sqrt(d))/D in I(i)."""
        while len(self.points) <= k:
            step = next(self.orbit, None)
            if step is None:
                raise DepthExceeded(f"orbit of 0 longer than {self.max_steps} steps")
            if step[1:] in self.separation_pairs:
                raise NotVerifiedIDOC(f"orbit of 0 hits a separation point at exponent {len(self.points)}")
            self.points.append(step)
        return self.points[k]

    def value(self, k: int) -> QuadReal:
        """T^k(0) as one ``QuadReal`` per exponent, shared by every floor and marker on it."""
        if k not in self.values:
            self.values[k] = _point(*self.point(k)[1:], self.lattice[1], self.lattice[0])
        return self.values[k]

    def less(self, x: tuple[int, ...], y: tuple[int, ...]) -> bool:
        """x < y for pairs (p, q) or points (i, p, q) on the lattice."""
        return _positive(y[-2] - x[-2], y[-1] - x[-1], self.lattice[0])

    def deepen(self, K: int) -> tuple[MarkerTable, MarkerTable]:
        """Test distinct orbits below depth K + 1, then give the marker tables and set ``spans`` at depth K."""
        if self.distinct_depth <= K:
            steps = K + 1 - self.distinct_depth
            for orbit in self.separation_orbits:
                if any((p, q) in self.separation_pairs for _, p, q in islice(orbit, steps)):
                    raise NotVerifiedIDOC(
                        f"distinct-orbit check failed below depth {K + 1}: orbit collision")
            self.distinct_depth = K + 1
        T, extremes, points, less = self.T, self.extremes, self.points, self.less
        for k in range(self.marker_depth + 1, K + 1):
            i = self.point(k)[0]
            for key, m in (((False, i), k), ((True, T.sigma(i)), k + 1)):
                x = self.point(m)
                pair = extremes.setdefault(key, [m, m])
                if less(points[pair[0]], x):
                    pair[0] = m
                elif less(x, points[pair[1]]):
                    pair[1] = m
        self.marker_depth = K
        for primed, i in product((False, True), range(1, T.n + 1)):
            if (primed, i) not in extremes:
                raise ConsistencyViolation(f"no orbit point in interval {i} at depth {K}")
        # delta 0: the largest point of interval i; delta 1: the smallest of interval i + 1
        plain, prime = ({(delta, i): Marker(delta, i, k, self.value(k), primed)
                         for i in range(T.n + 1) for delta in (0, 1) if 0 < i + delta <= T.n
                         for k in (extremes[(primed, i + delta)][delta],)} for primed in (False, True))
        # the orbit points bounding the marked span of beta(j), j = 1..n-1
        self.spans = [(points[plain[(0, j)].exponent], points[plain[(1, j)].exponent]) for j in range(1, T.n)]
        images = {next(islice(_steps(T, self.lattice, points[m.exponent][1:]), 1, None))[1:]
                  for m in plain.values()}
        if images != {points[m.exponent][1:] for m in prime.values()}:
            raise ConsistencyViolation("primed markers are not the T-images of the markers")
        return plain, prime


def _flow_strip(T: Iet, cache: _OrbitCache, bottom: tuple[int, int]) -> tuple[Floor, ...]:
    """Read the floors of a bottom (left, right exponents) off the orbit table until one lands.

    Floor s is [T^(l+s)(0), T^(r+s)(0)), with the total length for a right exponent
    of 0; in I(i) it can land only in the spans of beta(i-1) and beta(i).  A floor
    the strip steps past must have right <= beta(i); as the table holds no separation
    point, both ends lie in I(i) and shift by tau(i), so the width is constant.  At
    the right edge, T(total-) = T(0) as sigma(n) = sigma(1) - 1.
    """
    left_exponent, right_exponent = bottom
    ends, less = cache.lattice[2], cache.less  # beta(0..n) first, the total at n
    floors: list[Floor] = []
    for step in range(cache.max_steps):
        l, r = left_exponent + step, right_exponent + step
        left = cache.point(l)
        i = left[0]
        right = cache.point(r) if r else ends[T.n]
        landed = any(not less(left, lo) and not less(hi, right) for lo, hi in cache.spans[max(i - 2, 0):i])
        inside = not less(ends[i], right)
        floors.append(Floor(cache.value(l), cache.value(r) if r else T.total, l, r,
                            i if inside or not landed else None))
        if landed:
            return tuple(floors)
        if not inside and step + 1 < cache.max_steps:
            raise ConsistencyViolation(f"block [{floors[-1].left}, {floors[-1].right}) crosses beta({i})")
    raise DepthExceeded(f"strip did not close within {cache.max_steps} floors")


def _level_strips(T: Iet, cache: _OrbitCache, plain: MarkerTable, prime: MarkerTable) -> list[Strip]:
    n = T.n
    j0 = T.sigma(1) - 1
    bottoms = [(0, plain[(1, 0)].exponent), (plain[(0, n)].exponent, 0)]
    bottoms += [(prime[(0, j)].exponent, prime[(1, j)].exponent) for j in range(1, n) if j != j0]
    if len(bottoms) != n:
        raise ConsistencyViolation(f"expected {n} strip bottoms, found {len(bottoms)}")
    lefts = [cache.point(left) for left, _ in bottoms]
    bottoms.sort(key=lambda bottom: sum(cache.less(x, cache.point(bottom[0])) for x in lefts))
    # a floor below the top has not landed, so it lies in one interval: the visit word reads them
    strips = [Strip(index, floors, tuple(f.interval for f in floors[:-1]))
              for index, floors in enumerate((_flow_strip(T, cache, b) for b in bottoms), start=1)]
    if not tiles(((f.left_exponent, f.right_exponent or _TOTAL) for s in strips for f in s.floors), 0, _TOTAL):
        raise ConsistencyViolation("strip floors do not tile the interval")
    return strips


def _first_depth(T: Iet, cache: _OrbitCache) -> tuple[int, int]:
    """Least depth with two orbit points in every interval, bumped once for an end interval."""
    counts = [0] * T.n
    k = i = 0
    while min(counts) < 2:
        k += 1
        if k > cache.max_steps:
            raise DepthExceeded(f"no depth below {cache.max_steps} covers every interval twice")
        i = cache.point(k)[0]
        counts[i - 1] += 1
    return k, k + 1 if T.sigma(i) in (1, T.n) else k


def _next_depth(T: Iet, cache: _OrbitCache, plain: MarkerTable, prime: MarkerTable) -> tuple[int, int]:
    """Climb the orbit past the deepest primed span marker to the next landing.

    A landing in the span of beta(j) lies in interval i = j or j + 1, never on
    beta(j); the depth is bumped when I(i) maps to the end interval on its side.
    """
    n, less, spans = T.n, cache.less, cache.spans
    start = max(prime[(d, i)].exponent for d in (0, 1) for i in range(1, n))
    left_col, right_col = cache.point(plain[(1, 0)].exponent), cache.point(plain[(0, n)].exponent)
    for m in range(start + 1, cache.max_steps):
        z = cache.point(m)
        i = z[0]
        for j in range(max(i - 1, 1), min(i + 1, n)):
            if less(spans[j - 1][0], z) and less(z, spans[j - 1][1]):
                return m, m + 1 if T.sigma(i) == (n if i == j else 1) else m
        # z lies in (0, total): a return to 0 would follow T^-1(0), which the cache rejects
        if less(z, left_col) or less(right_col, z):
            return m, m
    raise DepthExceeded(f"no landing below {cache.max_steps} orbit steps")


def _incidence(previous: tuple[Strip, ...], current: list[Strip]) -> tuple[list[Strip], IntMatrix]:
    """Count current floors per previous floor, check the shape, and relabel by inheritance."""
    n = len(previous)
    # _level_strips checked that the current floors tile [0, total): a left exponent names one floor
    follow = {f.left_exponent: (f.right_exponent or _TOTAL, s.index) for s in current for f in s.floors}
    # met[row][col]: floor counts of current strip row + 1 in the floors of previous strip col + 1
    met: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(n)]
    for old in previous:
        for parent in old.floors:
            inside: Counter[int] = Counter()
            edge, end = parent.left_exponent, parent.right_exponent or _TOTAL
            while edge != end:
                if edge not in follow:
                    raise ConsistencyViolation("new floor is not inside a single old floor")
                edge, index = follow[edge]
                inside[index] += 1
            for index, count in inside.items():
                met[index - 1][old.index - 1].append(count)
    for row in met:
        for col, counts in enumerate(row):
            if len(set(counts)) > 1:
                raise ShapeViolation("uneven refinement counts within one old strip")
            if counts and len(counts) != previous[col].height:
                raise ShapeViolation("new strip misses floors of an old strip it meets")
    raw = [[counts[0] if counts else 0 for counts in row] for row in met]
    assignment: dict[int, int] = {}
    split_rows = []
    for row in range(n):
        overlaps = [col for col in range(n) if raw[row][col] > 0]
        if len(overlaps) == 1:
            assignment[row] = overlaps[0]
        elif len(overlaps) == 2:
            split_rows.append(row)
        else:
            raise ShapeViolation(f"strip meets {len(overlaps)} previous strips")
    if len(split_rows) != 1:
        raise ShapeViolation(f"{len(split_rows)} strips split, expected exactly one")
    taken = set(assignment.values())
    if len(taken) != n - 1:
        raise ShapeViolation("index inheritance is not one-to-one")
    assignment[split_rows[0]] = next(col for col in range(n) if col not in taken)
    aligned = [[0] * n for _ in range(n)]
    for row in range(n):
        aligned[assignment[row]] = raw[row]
    if not identity_plus_unit(aligned):
        raise ShapeViolation("aligned incidence matrix is not identity plus one unit")
    relabeled = [replace(strip, index=assignment[strip.index - 1] + 1) for strip in current]
    relabeled.sort(key=lambda s: s.index)
    return relabeled, freeze(aligned)


def strip_decomposition(T: Iet, levels: int, max_steps: int = DEFAULT_MAX_STEPS) -> tuple[StripLevel, ...]:
    """Build the first ``levels`` strip decompositions of the suspension square.

    Level 1 uses the smallest orbit depth that puts two points of the orbit
    of 0 in every interval; each later level follows the orbit past the
    deepest primed marker until it lands inside a marked span or one of the
    two boundary columns.  In both cases a landing next to a separation
    point whose interval maps to an end interval bumps the depth by one.
    """
    if levels < 1:
        raise ValueError("levels must be positive")
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    if not irreducible(T.sigma):
        raise Reducible(f"sigma {_clipped(str(T.sigma.images))} is reducible")
    if T.sigma(T.n) != T.sigma(1) - 1:
        raise ClosedTransversalRequired(
            f"sigma {_clipped(str(T.sigma.images))} has no closed transversal through 0"
        )
    cache = _OrbitCache(T, max_steps)
    out: list[StripLevel] = []
    markers: MarkerTable = {}
    primed: MarkerTable = {}
    for level in range(1, levels + 1):
        raw, K = _next_depth(T, cache, markers, primed) if out else _first_depth(T, cache)
        if out and K <= out[-1].K:
            raise ConsistencyViolation("strip depth failed to increase")
        markers, primed = cache.deepen(K)
        strips = _level_strips(T, cache, markers, primed)
        strips, incidence = _incidence(out[-1].strips, strips) if out else (strips, None)
        out.append(StripLevel(level=level, raw_K=raw, K=K, markers=tuple(markers.values()),
                              primed_markers=tuple(primed.values()), strips=tuple(strips),
                              incidence_to_previous=incidence))
    return tuple(out)
