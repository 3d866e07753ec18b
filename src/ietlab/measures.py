"""Invariant-measure cone estimates, empirical measures, and unique-ergodicity certificates.

The cone of invariant measures of an interval exchange is approximated by
pushing the standard simplex through the integer matrices of a nested
induction chain: the columns of the accumulated product, normalized to sum
one, are candidate extremal rays.  Clustering the rays at a tolerance gives
an upper estimate for the number of ergodic measures.  Empirical measures
count interval visits along a finite orbit window, and a certificate of
unique ergodicity is obtained from disjoint blocks of the chain whose
matrix product is entrywise positive.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Sequence

from .exactnum import QuadReal
from .iet import Iet, _encode, _steps
from .induction import InductionStep
from .intmat import IntMatrix, identity, mat_mul

DEFAULT_CLUSTER_EPSILON = Fraction(1, 10**6)


@dataclass(frozen=True)
class MeasureVector:
    """Interval-visit frequencies of a finite orbit window.

    ``raw`` divides the visit counts by the window length and therefore sums
    to ``(n_steps + 1) / n_steps`` (the window is inclusive on both ends);
    ``normalized`` divides by the number of visits and sums to one.
    """

    raw: tuple[Fraction, ...]
    normalized: tuple[Fraction, ...]


@dataclass(frozen=True)
class ConeApprox:
    """Finite-depth approximation of the cone of invariant measures.

    ``product`` is the exact product of the chain's transition matrices,
    ``rays`` its sum-one normalized columns, and ``clusters`` groups ray
    indices whose pairwise max-norm distance is below the tolerance.
    ``chain_matrices`` keeps the factors after the first step, so that a group
    element at any intermediate level can be pushed to the cone's depth.
    """

    depth: int
    product: IntMatrix
    rays: tuple[tuple[Fraction, ...], ...]
    clusters: tuple[tuple[int, ...], ...]
    nu_estimate: int
    chain_matrices: tuple[IntMatrix, ...]


def _ray(matrix: IntMatrix, j: int) -> tuple[Fraction, ...]:
    column = [row[j] for row in matrix]
    total = sum(column)
    return tuple(Fraction(entry, total) for entry in column)


def _check_epsilon(epsilon: Fraction) -> None:
    if not isinstance(epsilon, (int, Fraction)):
        raise TypeError(f"epsilon must be an int or Fraction, not {type(epsilon).__name__}")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")


def _cluster(rays: Sequence[tuple[Fraction, ...]], epsilon: Fraction) -> tuple[tuple[int, ...], ...]:
    """Group ray indices by the transitive closure of max-norm distance < epsilon."""
    parent = list(range(len(rays)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            if max(abs(a - b) for a, b in zip(rays[i], rays[j])) < epsilon:
                parent[find(j)] = find(i)
    groups: dict[int, list[int]] = {}
    for i in range(len(rays)):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(members) for _, members in sorted(groups.items()))


def cone_approx(chain: Sequence[InductionStep], epsilon: Fraction = DEFAULT_CLUSTER_EPSILON) -> ConeApprox:
    """Approximate the invariant-measure cone from a nested induction chain.

    The rays are the sum-one normalized columns of the exact product of the
    chain's matrices; the number of clusters bounds the number of ergodic
    measures from above (it never exceeds the number of intervals).
    """
    _check_epsilon(epsilon)
    if not chain:
        raise ValueError("cone_approx needs a nonempty chain")
    n = chain[0].parent.n
    product = identity(n)
    for step in chain:
        product = mat_mul(product, step.A)
    rays = tuple(_ray(product, j) for j in range(n))
    clusters = _cluster(rays, epsilon)
    return ConeApprox(
        depth=len(chain),
        product=product,
        rays=rays,
        clusters=clusters,
        nu_estimate=len(clusters),
        chain_matrices=tuple(step.A for step in chain[1:]),
    )


def empirical_measure(T: Iet, p: QuadReal | Fraction | int, m: int, n_steps: int) -> MeasureVector:
    """Count interval visits of the orbit of ``p`` over the window [m, m + n_steps].

    Both window ends are included, so the raw frequencies (counts divided by
    ``n_steps``) sum to ``(n_steps + 1) / n_steps``; the normalized variant
    divides by the visit count instead and is a probability vector.
    """
    if m < 0:
        raise ValueError("window start must be nonnegative")
    if n_steps < 1:
        raise ValueError("window length must be positive")
    lattice, (start,) = _encode(T, [p])
    visits = Counter(i for i, _, _ in islice(_steps(T, lattice, start), m, m + n_steps + 1))
    raw = tuple(Fraction(visits[i], n_steps) for i in range(1, T.n + 1))
    normalized = tuple(Fraction(visits[i], n_steps + 1) for i in range(1, T.n + 1))
    return MeasureVector(raw=raw, normalized=normalized)


@dataclass(frozen=True)
class Certificate:
    """Finite positivity evidence for unique ergodicity.

    ``certified`` records that at least ``required_blocks`` disjoint index
    ranges of the chain have an entrywise positive matrix product.  This is
    finite evidence, not a proof: unique ergodicity needs such blocks to
    occur forever.
    """

    certified: bool
    block_ranges: tuple[tuple[int, int], ...]
    required_blocks: int


def unique_ergodicity_certificate(chain: Sequence[InductionStep], required_blocks: int) -> Certificate:
    """Scan the chain greedily for disjoint ranges with entrywise positive products.

    Ranges are inclusive index pairs ``(i, j)`` into ``chain`` meaning
    the product ``A_i ... A_j``.  The greedy scan (close each block at the
    first index that makes it positive) maximizes the number of disjoint
    blocks found.
    """
    if required_blocks < 1:
        raise ValueError("required_blocks must be positive")
    if not chain:
        raise ValueError("certificate needs a nonempty chain")
    n = chain[0].parent.n
    ranges: list[tuple[int, int]] = []
    start = 0
    product = identity(n)
    for index, step in enumerate(chain):
        product = mat_mul(product, step.A)
        if all(entry > 0 for row in product for entry in row):
            ranges.append((start, index))
            start = index + 1
            product = identity(n)
    return Certificate(
        certified=len(ranges) >= required_blocks,
        block_ranges=tuple(ranges),
        required_blocks=required_blocks,
    )

