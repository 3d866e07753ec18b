"""Small exact helpers for integer matrices."""

from __future__ import annotations

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


def identity_plus_unit(m: Sequence[Sequence[int]]) -> bool:
    """Whether m is the identity with exactly one off-diagonal entry equal to 1."""
    n = len(m)
    off = [m[i][j] for i in range(n) for j in range(n) if i != j]
    return all(m[i][i] == 1 for i in range(n)) and sum(off) == 1 and min(off) >= 0
