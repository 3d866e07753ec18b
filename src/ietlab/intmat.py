"""Small exact helpers for integer and rational matrices."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

IntMatrix = tuple[tuple[int, ...], ...]


def freeze(rows: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(int(v) for v in row) for row in rows)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    cols = range(len(b[0]))
    return tuple(
        tuple(sum(ra[k] * b[k][j] for k in range(len(b))) for j in cols)
        for ra in a
    )


def column_sums(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    return tuple(sum(row[j] for row in m) for j in range(len(m[0])))


def det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(m)
    a = [[int(v) for v in row] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def inverse(m: Sequence[Sequence[int]]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse over the rationals; raises ValueError when singular."""
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)]
           + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)

