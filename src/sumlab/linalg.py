"""Exact linear algebra on small dense systems, by one fraction-free elimination: integer rows stay integers."""

from __future__ import annotations

from math import lcm
from operator import mul, sub
from typing import Iterable, Sequence


def _eliminate(vectors: Iterable[Sequence]) -> tuple[list, list[tuple[int, Sequence]]]:
    """(kept, reduced): the vectors outside the span of those kept before them, and their
    (pivot, reduced row).  A reduced row is zero in the earlier pivots and its pivot is its
    first nonzero column; it is the vector itself, not a copy, when no earlier row touched it,
    so no caller may change a vector or a row it hands in or gets back.  Stops once the rows
    span the space.
    """
    kept: list = []
    reduced: list[tuple[int, Sequence]] = []
    for v in vectors:
        r = v
        for col, row in reduced:
            x = r[col]
            if x:
                y = row[col]
                r = [y * a - x * b for a, b in zip(r, row)]
        for pivot, x in enumerate(r):
            if x:
                break
        else:
            continue
        kept.append(v)
        reduced.append((pivot, r))
        if len(kept) == len(r):
            break
    return kept, reduced


def greedy_basis(vectors: Iterable[Sequence]) -> list:
    """The vectors, in order, that lie outside the span of those kept before them."""
    return _eliminate(vectors)[0]


def affine_basis(points: Sequence[Sequence]) -> list:
    """Greedy basis of the differences {p - points[0]}."""
    p0 = points[0]
    return _eliminate([tuple(map(sub, p, p0)) for p in points[1:]])[0]


def affine_rank(points: Sequence[Sequence]) -> int:
    """Rank of the difference system {p - points[0]}; 0 for a single point."""
    return len(affine_basis(points))


def kernel_vector(mat: Sequence[Sequence], ncols: int) -> tuple | None:
    """One nonzero kernel vector of the row system, or None if the kernel is trivial.

    It is nonzero in the first non-pivot column and zero in the others.
    Back-substitution from the last reduced row scales instead of dividing,
    so integer rows give an integer vector.
    """
    reduced = _eliminate(mat)[1]
    pivots = {pivot for pivot, _ in reduced}
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    v = [0] * ncols
    v[free] = 1
    for pivot, row in reversed(reduced):
        rest = sum(map(mul, row, v))
        v = [row[pivot] * x for x in v]
        v[pivot] = -rest
    return tuple(v)


def invert_matrix(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(den, k) with k / den the inverse of an invertible square integer matrix, den > 0.

    Column j of den * inverse is the kernel vector v of the rows [M_i | -[i == j]]
    times den / v_n, v_n its last entry and den the lcm of the last entries.
    """
    n = len(rows)
    columns = [kernel_vector([[*row, -1 if i == j else 0] for i, row in enumerate(rows)], n + 1) for j in range(n)]
    den = lcm(*(v[n] for v in columns))
    return den, tuple(tuple(v[i] * (den // v[n]) for v in columns) for i in range(n))
