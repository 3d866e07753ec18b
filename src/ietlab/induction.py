"""Admissible intervals, first-return maps, and shrinking interval chains."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

from .errors import (ConsistencyViolation, DegenerateAt, NotAdmissible,
                     OutOfDomain, ReturnTimeExceeded)
from .exactnum import QuadReal, _lattice, _point, quad
from .iet import Iet, OrbitPoint, Permutation, _lattice_walk, iet_new, orbit_point, tiles
from .intmat import IntMatrix, column_sums, det, freeze

DEFAULT_MAX_STEPS = 10 ** 6


@dataclass(frozen=True)
class AdmissibleInterval:
    """Half-open [a.value, b.value) with endpoints on separation-point orbits."""

    a: OrbitPoint
    b: OrbitPoint

    @property
    def left(self) -> QuadReal:
        return self.a.value

    @property
    def right(self) -> QuadReal:
        return self.b.value


def whole_interval(T: Iet) -> AdmissibleInterval:
    """[0, beta(n)), admissible by convention."""
    return AdmissibleInterval(orbit_point(T, 0, 0), orbit_point(T, T.n, 0))


def basic_interval(T: Iet, i: int) -> AdmissibleInterval:
    """[beta(i), beta(i+1)) for 0 <= i <= n-1; admissible with zero exponents."""
    if not 0 <= i < T.n:
        raise OutOfDomain(f"no basic interval with index {i}")
    return AdmissibleInterval(orbit_point(T, i, 0), orbit_point(T, i + 1, 0))


@dataclass(frozen=True)
class AdmissibilityResult:
    admissible: bool
    m: Optional[int] = None
    witness: Optional[QuadReal] = None
    endpoint: str = ""


def is_admissible(T: Iet, a: OrbitPoint, b: OrbitPoint) -> AdmissibilityResult:
    """Check the per-endpoint visit conditions for J = [a.value, b.value).

    An endpoint generated as T^e(beta(i)) forbids orbit visits T^m(beta(i))
    into J at 0 < m < e when e >= 0, and at e < m <= 0 when e < 0.
    """
    if not a.value < b.value:
        raise OutOfDomain("interval endpoints out of order")
    if a.value < 0 or b.value > T.total:
        raise OutOfDomain("interval endpoints outside the domain")

    for tag, point in (("left", a), ("right", b)):
        start, e = T.beta[point.base], point.power
        if e > 1 or e < 0:
            word, x = _lattice_walk(T, start, abs(e), window=(a.value, b.value), backward=e < 0)
            if x is not None:
                return AdmissibilityResult(False, len(word) if e > 0 else -len(word), x, tag)
    return AdmissibilityResult(True)


@dataclass(frozen=True)
class InductionStep:
    """One induction: the first-return map of parent on J, with its matrix.

    origin is the absolute left endpoint of J in the coordinates of the
    chain's original system (J.left for a step induced directly from it).
    """

    parent: Iet
    J: AdmissibleInterval
    induced: Iet
    A: IntMatrix
    return_times: tuple[int, ...]
    origin: QuadReal


def _division_points(T: Iet, a: QuadReal, b: QuadReal,
                     max_steps: int) -> list[QuadReal]:
    """For each beta(j), the first backward-orbit point strictly inside (a, b).

    Exact hits on a are skipped and the backward orbit continued, so the
    points always cut J into n nonempty blocks.  An orbit that comes back to
    beta(j) before entering (a, b) never will, and fails at once.
    """
    points = []
    for j in range(1, T.n):
        word, x = _lattice_walk(T, T.beta[j], max_steps + 1, window=(a, b), backward=True,
                                open_left=True)
        if x is None:
            why = (f"is periodic with period {len(word)} and avoids the interval"
                   if len(word) <= max_steps else f"avoided the interval for {max_steps} steps")
            raise ReturnTimeExceeded(f"backward orbit of beta({j}) {why}")
        points.append(x)
    if len(set(points)) != T.n - 1:
        raise NotAdmissible("division points of the interval collide")
    return sorted(points)


def first_return_blocks(
    T: Iet, a: QuadReal, b: QuadReal, max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[list[QuadReal], list[list[int]], list[QuadReal]]:
    """Cut [a, b) at the division points and flow each block to first return.

    Each block [left, right) is pushed forward until it first re-enters
    [a, b); its visit word holds one interval index per step, counted
    before applying T.  Returns (block boundary points c_0..c_n, visit
    words, landing lefts).
    """
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    cuts = [a] + _division_points(T, a, b, max_steps) + [b]
    words, landings = [], []
    for left, right in zip(cuts, cuts[1:]):
        word, landing = _lattice_walk(T, left, max_steps + 1, width=right - left, window=(a, b))
        if landing is None:
            raise ReturnTimeExceeded(
                f"block at {left} did not return within {max_steps} steps")
        words.append(word)
        landings.append(landing)
    return cuts, words, landings


def induce(T: Iet, J: AdmissibleInterval,
           max_steps: int = DEFAULT_MAX_STEPS,
           origin: Optional[QuadReal] = None) -> InductionStep:
    """First-return map of T on J as an IET on [0, |J|), with matrix A.

    Row i, column j of A counts the visits of the j-th return block to
    I(i); every structural invariant (alpha = A alpha', det A = +-1, Kac
    identity, exact tiling of J by the landings) is verified before
    returning.  ``origin`` records the absolute left endpoint of J and
    defaults to J.left; iterated callers pass their own bookkeeping.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    if origin is None:
        origin = J.left
    check = is_admissible(T, J.a, J.b)
    if not check.admissible:
        raise NotAdmissible(
            f"orbit of the {check.endpoint} endpoint visits J at m={check.m}")
    a, b = J.left, J.right
    cuts, words, landings = first_return_blocks(T, a, b, max_steps)
    n = T.n

    widths = [cuts[j + 1] - cuts[j] for j in range(n)]
    order = sorted(range(n), key=lambda j: landings[j])  # the blocks in landing order
    sigma_prime = Permutation(tuple(j + 1 for j in order)).inverse()
    induced = iet_new(sigma_prime, widths)

    matrix = freeze([[words[j].count(i) for j in range(n)]
                     for i in range(1, n + 1)])
    return_times = tuple(len(w) for w in words)
    step = InductionStep(T, J, induced, matrix, return_times, origin)
    _verify_step(step, landings)
    return step


def _verify_step(step: InductionStep, landings: list[QuadReal]) -> None:
    T, induced, A = step.parent, step.induced, step.A
    n = T.n
    if column_sums(A) != step.return_times:
        raise ConsistencyViolation("column sums disagree with return times")
    if abs(det(A)) != 1:
        raise ConsistencyViolation(f"transition matrix has det {det(A)}")
    d, D, lengths = _lattice(induced.alpha)  # alpha' over one denominator, as integer pairs

    def combination(weights: tuple[int, ...]) -> QuadReal:
        pairs = [(w * p, w * q) for w, (p, q) in zip(weights, lengths) if w]
        return _point(sum(p for p, _ in pairs), sum(q for _, q in pairs), D, d)

    if any(combination(A[i]) != T.alpha[i] for i in range(n)):
        raise ConsistencyViolation("alpha != A alpha'")
    if combination(step.return_times) != T.total:
        raise ConsistencyViolation("Kac identity fails")
    pieces = ((landings[j], landings[j] + induced.alpha[j]) for j in range(n))
    if not tiles(pieces, step.J.left, step.J.right):
        raise ConsistencyViolation("return landings do not tile J")


def shrink_sequence(T: Iet, y0: QuadReal, depth: int,
                    max_steps: int = DEFAULT_MAX_STEPS,
                    side: Optional[Literal["left", "right"]] = None,
                    ) -> list[InductionStep]:
    """Chain of inductions on nested basic intervals containing y0.

    The first step inducts on [0, beta(n)) (identity matrix); each later
    step inducts the previous induced map on its basic interval containing
    y0, rescaled to that stage's coordinates.  If y0 hits a separation
    point of some stage, DegenerateAt(k) is raised unless a side is given.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    if side not in (None, "left", "right"):
        raise ValueError(f"side must be 'left', 'right' or None, not {side!r}")
    if quad(0) > y0 or not y0 < T.total:
        raise OutOfDomain(f"{y0} outside [0, {T.total})")

    chain = [induce(T, whole_interval(T), max_steps)]
    y = y0
    origin = quad(0)
    for k in range(1, depth):
        current = chain[-1].induced
        if y == current.total:  # only a side="left" step leaves y on the right end
            idx = current.n - 1
        else:
            idx = current.interval_index(y) - 1
            if idx >= 1 and y == current.beta[idx]:
                if side is None:
                    raise DegenerateAt(
                        f"y0 hits separation point {idx} at stage {k}")
                if side == "left":
                    idx -= 1
        J = basic_interval(current, idx)
        origin = origin + J.left
        step = induce(current, J, max_steps, origin=origin)
        if not step.induced.total < current.total:
            raise ConsistencyViolation("interval lengths must shrink")
        chain.append(step)
        y = y - J.left
    return chain
