"""Tower partitions, Bratteli diagrams, dimension groups, and the L^sigma matrix.

A nested chain of first-return maps organizes the interval into towers whose
refinement pattern is a Bratteli diagram; the transition matrices of the
chain are the connecting maps of an ordered dimension group.  The strip
decomposition of the suspension square yields a second presentation of the
same group, connected to the first by the unimodular matrix of strip classes
in interval coordinates.  Positivity of group elements is semidecided by
pushing representatives forward, and cross-checked against the dual cone of
invariant measures.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Literal, Sequence

from .errors import ConsistencyViolation, HorizonExceedsDepth, ReturnTimeExceeded, ShapeViolation
from .exactnum import QuadReal, quad
from .iet import Iet, Permutation, _lattice_walk, _points, tiles
from .induction import DEFAULT_MAX_STEPS, AdmissibleInterval, InductionStep, induce
from .intmat import IntMatrix, column_sums, det, freeze, identity_plus_unit
from .measures import ConeApprox, _check_epsilon
from .suspension import StripLevel, singularity_profile

PositivityVerdict = Literal["zero", "positive", "nonpositive_witness", "unknown"]
ConeVerdict = Literal["consistent_positive", "consistent_negative", "boundary"]

DEFAULT_CONE_EPSILON = Fraction(1, 10**9)


@dataclass(frozen=True)
class Tower:
    """One tower: the floors T(base), T^2(base), ..., T^height(base)."""

    index: int
    base_left: QuadReal
    base_right: QuadReal
    height: int
    floors: tuple[tuple[QuadReal, QuadReal], ...]


@dataclass(frozen=True)
class TowerPartition:
    """Partition of the interval into the first-return towers over a base window.

    Tower l sits over the l-th interval of the induced map; its top floors
    tile the window, its first floors tile the image of the window, and all
    floors together tile the whole interval.  ``algebra_dims`` lists the
    heights, the dimensions of the associated matrix-algebra summands.
    """

    Y: AdmissibleInterval
    towers: tuple[Tower, ...]
    algebra_dims: tuple[int, ...]


def towers(T: Iet, Y: AdmissibleInterval, max_steps: int = DEFAULT_MAX_STEPS) -> TowerPartition:
    """Build the first-return towers of T over the admissible window Y.

    Tower l stands on [Y.left + beta'(l-1), Y.left + beta'(l)), beta' being the
    induced map's ends.  Its top floor is [landing_l, landing_l + alpha'_l) from
    the same walk ``induce`` ran, which already checked that the landings tile Y
    and the Kac identity; only the tiling of the interval by all floors is new.
    """
    step = induce(T, Y, max_steps=max_steps)
    ends = [Y.left + b for b in step.induced.beta]
    result = []
    for l, (width, height) in enumerate(zip(step.induced.alpha, step.return_times), start=1):
        walk = islice(_points(T, ends[l - 1], width=width), 1, height + 1)  # no step splits the block
        result.append(Tower(l, ends[l - 1], ends[l], height, tuple((x, x + width) for _, x in walk)))
    if not tiles((f for t in result for f in t.floors), quad(0), T.total):
        raise ConsistencyViolation("tower floors do not tile the interval")
    return TowerPartition(Y=Y, towers=tuple(result), algebra_dims=tuple(t.height for t in result))


@dataclass(frozen=True)
class BratteliLevel:
    rank: int
    labels: tuple[str, ...]


@dataclass(frozen=True)
class BratteliDiagram:
    """Vertex levels of constant rank with integer edge-multiplicity matrices."""

    levels: tuple[BratteliLevel, ...]
    edges: tuple[IntMatrix, ...]


def bratteli(chain: Sequence[InductionStep], max_steps: int = DEFAULT_MAX_STEPS) -> BratteliDiagram:
    """Turn a nested induction chain into a Bratteli diagram.

    Every edge matrix is verified independently: each deep tower base is
    walked under the original map for one full return, counting how often
    the block passes through each tower of the previous level; the counts
    must reproduce the chain's transition matrix entry by entry.  Both
    levels are read as absolute tower-base ends in the original map's
    coordinates, so each walked block is located by one bisection.
    """
    if not chain:
        raise ValueError("bratteli needs a nonempty chain")
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    T = chain[0].parent
    origin = quad(0)
    for step in chain:
        prev = [origin + b for b in step.parent.beta]
        origin = step.origin
        _verify_edge(T, step.A, prev, [origin + b for b in step.induced.beta], max_steps)
    levels = tuple(
        BratteliLevel(rank=T.n, labels=tuple(f"L{k}_V{i}" for i in range(1, T.n + 1)))
        for k in range(len(chain) + 1)
    )
    return BratteliDiagram(levels=levels, edges=tuple(step.A for step in chain))


def _verify_edge(T: Iet, A: IntMatrix, prev: list[QuadReal], cur: list[QuadReal], max_steps: int) -> None:
    """Walk each base [cur[m-1], cur[m]) under T to its return into [cur[0], cur[-1]).

    prev and cur are the absolute base ends of the previous and current
    level.  A block inside [prev[0], prev[-1]) must lie in one previous
    base, which counts towards column m of A; a block meeting it otherwise
    straddles the window or a base.  The walk refuses to step a block across
    an end of T's intervals.
    """
    for m in range(1, len(cur)):
        width = cur[m] - cur[m - 1]
        counts = [0] * (len(prev) - 1)
        for t, (_, x) in enumerate(islice(_points(T, cur[m - 1], width=width), max_steps + 1)):
            right = x + width
            if t and cur[0] <= x and right <= cur[-1]:
                break
            l = bisect_right(prev, x)
            if 0 < l < len(prev) and right <= prev[l]:
                counts[l - 1] += 1
            elif l < len(prev) and (l > 0 or prev[0] < right):  # the block meets [prev[0], prev[-1])
                where = "the previous window" if l == 0 or prev[-1] < right else "a previous tower base"
                raise ConsistencyViolation(f"walk block straddles {where}")
        else:
            raise ReturnTimeExceeded(f"no return within {max_steps} steps")
        column = [A[l][m - 1] for l in range(len(counts))]
        if counts != column:
            raise ConsistencyViolation(f"tower walk column {m} gives {counts}, matrix says {column}")


def export_bratteli(diagram: BratteliDiagram) -> str:
    """Deterministic DOT rendering with L<k>_V<i> node names."""
    lines = ["digraph bratteli {", "  rankdir=TB;"]
    for level in diagram.levels:
        for label in level.labels:
            lines.append(f"  {label};")
    for k, matrix in enumerate(diagram.edges):
        for l, row in enumerate(matrix, start=1):
            for m, entry in enumerate(row, start=1):
                if entry > 0:
                    lines.append(f'  L{k}_V{l} -> L{k + 1}_V{m} [label="{entry}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DimensionGroup:
    """Direct limit of (Z^n, positive cone) along the connecting matrices.

    ``matrices[j]`` connects level j to level j + 1.  For an induction
    source, level-j coordinates are taken in the tower-base generators and
    push forward through the transpose; for a strip source they are taken
    in the one-floor generators and push forward through the matrix itself,
    the strip levels' identity-plus-one-unit incidence matrices.
    """

    n: int
    matrices: tuple[IntMatrix, ...]
    depth: int
    source: Literal["induction_chain", "strip_chain"]


@dataclass(frozen=True)
class GroupElement:
    """Representative ``vector`` at level ``level`` of a dimension group."""

    level: int
    vector: tuple[int, ...]


def dimension_group(
    chain: Sequence[InductionStep] | None = None,
    strips: Sequence[StripLevel] | None = None,
) -> DimensionGroup:
    """Wrap an induction chain or a strip decomposition as a dimension group."""
    if (chain is None) == (strips is None):
        raise ValueError("pass exactly one of chain and strips")
    if chain is not None:
        if not chain:
            raise ValueError("chain must be nonempty")
        matrices = tuple(step.A for step in chain[1:])
        n = chain[0].parent.n
        source: Literal["induction_chain", "strip_chain"] = "induction_chain"
    else:
        assert strips is not None
        if not strips:
            raise ValueError("strips must be nonempty")
        matrices = tuple(level.incidence_to_previous for level in strips[1:])
        for level, matrix in zip(strips[1:], matrices):
            if matrix is None or not identity_plus_unit(matrix):
                raise ShapeViolation(f"level {level.level} incidence is not identity plus one unit")
        n = len(strips[0].strips)
        source = "strip_chain"
    return DimensionGroup(n=n, matrices=matrices, depth=len(matrices), source=source)


def _row_times(vector: Sequence[int], matrix: IntMatrix) -> tuple[int, ...]:
    """The row vector times the matrix, v -> v A."""
    return tuple(sum(v * row[m] for v, row in zip(vector, matrix)) for m in range(len(matrix[0])))


def _push(G: DimensionGroup, level: int, vector: tuple[int, ...]) -> tuple[int, ...]:
    matrix = G.matrices[level]
    if G.source == "induction_chain":
        return _row_times(vector, matrix)
    return tuple(sum(a * v for a, v in zip(row, vector)) for row in matrix)


def positivity(G: DimensionGroup, x: GroupElement, horizon: int) -> PositivityVerdict:
    """Semidecide the order of a group element by pushing it forward.

    A forward image with all entries positive proves positivity; an image
    with all entries nonpositive and one negative witnesses the opposite.
    Both conditions persist under further pushes, so the first hit decides.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if x.level < 0 or len(x.vector) != G.n:
        raise ValueError("element does not fit the group")
    if x.level + horizon > G.depth:
        raise HorizonExceedsDepth(
            f"level {x.level} plus horizon {horizon} exceeds depth {G.depth}"
        )
    if all(entry == 0 for entry in x.vector):
        return "zero"
    vector = x.vector
    for step in range(horizon + 1):
        if all(entry > 0 for entry in vector):
            return "positive"
        if all(entry <= 0 for entry in vector) and any(entry < 0 for entry in vector):
            return "nonpositive_witness"
        if step < horizon:
            vector = _push(G, x.level + step, vector)
    return "unknown"


def dual_cone_test(x: GroupElement, cone: ConeApprox,
                   epsilon: Fraction = DEFAULT_CONE_EPSILON) -> ConeVerdict:
    """Pair a group element with every approximate measure ray, exactly.

    The element is pushed through the remaining chain matrices to the
    cone's depth, v -> v A as in ``positivity``; there the pairing with the
    normalized ray j is the exact rational v_j / s_j, with s_j the full
    product's column sum.
    """
    _check_epsilon(epsilon)
    if x.level < 0 or len(x.vector) != len(cone.product):
        raise ValueError("element does not fit the cone")
    if x.level > len(cone.chain_matrices):
        raise HorizonExceedsDepth(
            f"element level {x.level} exceeds cone depth {len(cone.chain_matrices)}"
        )
    vector = x.vector
    for matrix in cone.chain_matrices[x.level:]:
        vector = _row_times(vector, matrix)
    values = [Fraction(v, s) for v, s in zip(vector, column_sums(cone.product))]
    if all(value > epsilon for value in values):
        return "consistent_positive"
    if all(value < -epsilon for value in values):
        return "consistent_negative"
    return "boundary"


@dataclass(frozen=True)
class LSigma:
    matrix: IntMatrix
    det: int
    invertible: bool


def l_sigma(sigma: Permutation) -> LSigma:
    """The antisymmetric matrix L_sigma: column i is the class one step through interval i adds."""
    matrix = freeze(zip(*(coinvariant_shift(sigma, i) for i in range(1, sigma.n + 1))))
    determinant = det(matrix)
    return LSigma(matrix=matrix, det=determinant, invertible=determinant != 0)


def coinvariant_shift(sigma: Permutation, i: int) -> tuple[int, ...]:
    """Class of the translation step on interval i in interval coordinates.

    Applying the exchange to a point of interval i changes the class of the
    interval left of the point by this vector (the exact analogue of the
    translation length, with interval classes in place of lengths).
    """
    n = sigma.n
    if not 1 <= i <= n:
        raise ValueError(f"i must be an interval index in 1..{n}, not {i!r}")
    return tuple(
        (1 if sigma(j) < sigma(i) else 0) - (1 if j < i else 0) for j in range(1, n + 1)
    )


def orbit_classes(T: Iet, depth: int) -> tuple[tuple[int, ...], ...]:
    """Classes of [0, T^k(0)) in interval coordinates, for k = 0..depth."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    classes = [tuple([0] * T.n)]
    for i in _lattice_walk(T, quad(0), depth)[0]:
        shift = coinvariant_shift(T.sigma, i)
        classes.append(tuple(a + b for a, b in zip(classes[-1], shift)))
    return tuple(classes)


def strip_class_matrix(T: Iet, level: StripLevel) -> IntMatrix:
    """Matrix whose column j is the class of one floor of strip j.

    The class of a floor is the difference of its endpoint classes; a right
    exponent of 0 denotes the right edge of the interval, whose class is the
    all-ones vector.  The class must not depend on the floor chosen, and the
    matrix must be unimodular: it is the basis change between the strip
    presentation and the interval presentation of the same group.
    """
    n = T.n
    deepest = max(
        max(f.left_exponent, f.right_exponent) for s in level.strips for f in s.floors
    )
    classes = orbit_classes(T, deepest)
    ones = tuple([1] * n)
    columns = []
    for strip in level.strips:
        per_floor = []
        for floor in strip.floors:
            left = classes[floor.left_exponent]
            right = classes[floor.right_exponent] if floor.right_exponent else ones
            per_floor.append(tuple(r - l for r, l in zip(right, left)))
        if len(set(per_floor)) != 1:
            raise ConsistencyViolation(f"strip {strip.index} floors disagree in class")
        columns.append(per_floor[0])
    matrix = freeze([[columns[j][i] for j in range(n)] for i in range(n)])
    determinant = det(matrix)
    if determinant not in (1, -1):
        profile = singularity_profile(T.sigma)
        if determinant == 0 and profile.N >= 2:
            raise ConsistencyViolation(
                f"strip class matrix has det 0: 2g = {2 * profile.genus} < n = {n}, as sigma_0 has "
                f"N = {profile.N} cycles and the strips are bounded by the singularity at 0 only")
        raise ConsistencyViolation("strip class matrix is not unimodular")
    return matrix


def strip_coordinates(class_matrix: IntMatrix, vector: Sequence[int]) -> tuple[int, ...]:
    """Rewrite an interval-coordinate vector in strip coordinates, exactly.

    Solves W w = v by Cramer's rule: w_j is the determinant of W with column
    j replaced by v, divided by det W.
    """
    if len(vector) != len(class_matrix):
        raise ValueError("vector does not fit the matrix")
    determinant = det(class_matrix)
    if determinant == 0:
        raise ValueError("matrix is singular")
    numerators = [det([[*row[:j], v, *row[j + 1:]] for row, v in zip(class_matrix, vector)])
                  for j in range(len(class_matrix))]
    if any(numerator % determinant for numerator in numerators):
        raise ConsistencyViolation("strip coordinates came out fractional")
    return tuple(numerator // determinant for numerator in numerators)
