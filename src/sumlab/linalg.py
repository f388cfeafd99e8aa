"""Exact Gaussian elimination over rationals. Small dense systems only."""

from __future__ import annotations

from fractions import Fraction
from operator import sub
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def _rows(mat: Sequence[Sequence]) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in mat]


def rref(mat: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = _rows(mat)
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def greedy_basis(vectors: Iterable[Sequence]) -> list:
    """The vectors, in order, that lie outside the span of those kept before them.

    Each kept vector is stored reduced against the earlier ones, with its
    pivot column, so one pass decides membership in their span (incremental
    elimination, fraction-free).  Stops once the kept vectors span the space.
    """
    kept: list = []
    reduced: list[tuple[int, list]] = []
    for v in vectors:
        r = list(v)
        for col, row in reduced:
            if r[col]:
                r = [row[col] * x - r[col] * y for x, y in zip(r, row)]
        pivot = next((i for i, x in enumerate(r) if x), None)
        if pivot is not None:
            reduced.append((pivot, r))
            kept.append(v)
            if len(kept) == len(r):
                break
    return kept


def affine_rank(points: Sequence[Sequence]) -> int:
    """Rank of the difference system {p - points[0]}; 0 for a single point."""
    return len(greedy_basis(tuple(map(sub, p, points[0])) for p in points[1:]))


def invert_matrix(mat: Sequence[Sequence]) -> Matrix | None:
    """Inverse of a square rational matrix, or None if singular."""
    n = len(mat)
    aug = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(mat)
    ]
    red, pivots = rref(aug)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red[:n])


def kernel_vector(mat: Sequence[Sequence], ncols: int) -> Vector | None:
    """One nonzero kernel vector of the row system, or None if the kernel is trivial."""
    red, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    c0 = free[0]
    v = [Fraction(0)] * ncols
    v[c0] = Fraction(1)
    for row, pc in zip(red, pivots):
        v[pc] = -row[c0]
    return tuple(v)


def mat_vec(mat: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> Vector:
    return tuple(sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in mat)
