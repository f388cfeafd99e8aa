"""Deterministic generators for the extremal witness families.

All generators emit integer coordinates in the standard basis, so outputs are
byte-comparable with hand calculations.  Parameter validation is strict:
every downstream identity is exact, so out-of-range parameters are errors,
never clamped.
"""

from __future__ import annotations

from typing import Sequence

from .pointset import PointSet, unit


def _parallel_aps(bases: list, step: tuple[int, ...], lengths: Sequence[int]) -> list[tuple[int, ...]]:
    """The progressions base, base + step, ..., one per base, of the paired lengths."""
    return [
        tuple(x + j * y for x, y in zip(base, step))
        for base, n in zip(bases, lengths)
        for j in range(n)
    ]


def stanchescu_dk(d: int, k: int) -> PointSet:
    """Stanchescu's 2(d-1) parallel arithmetic progressions of length k.

    T is the origin plus the first d-2 basis vectors; the set is
    (T u (a - T)) + P with a = e_d - k*e_{d-1} and P the length-k progression
    along e_{d-1}.  Cardinality is exactly 2(d-1)k (no collisions).
    """
    if d < 2 or k < 1:
        raise ValueError("need d >= 2 and k >= 1")
    t_block = [(0,) * d] + [unit(d, i) for i in range(d - 2)]
    a_k = tuple(x - k * y for x, y in zip(unit(d, d - 1), unit(d, d - 2)))
    mirrored = [tuple(x - y for x, y in zip(a_k, t)) for t in t_block]
    out = PointSet.of(d, _parallel_aps(t_block + mirrored, unit(d, d - 2), [k] * (2 * d - 2)))
    assert len(out) == 2 * (d - 1) * k
    return out


def freiman_aps(d: int, lengths: Sequence[int]) -> PointSet:
    """Union of d parallel APs with common difference e_d, based on a simplex.

    Base points are the origin and e_1 .. e_{d-1}; for d = 1 the set is a
    single AP along e_1.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if len(lengths) != d or any(n < 1 for n in lengths):
        raise ValueError("lengths must be d positive integers")
    bases = [(0,) * d] + [unit(d, i) for i in range(d - 1)]
    return PointSet.of(d, _parallel_aps(bases, unit(d, d - 1), lengths))


def stan_doubling_tight(d: int, n: int) -> PointSet:
    """Three rows of length n in the first two coordinates plus e_3 .. e_d.

    Sits exactly on the small-doubling threshold: |A+A| equals
    (d + 4/3)|A| - (3d^2 + 5d + 8)/6 with |A| = 3n + d - 2.
    Its minimal parallel-line cover is min(n, 3) + d - 2 lines, so it
    needs more than d lines, and shows the threshold sharp, only for n >= 3.
    """
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    points = [
        tuple(i if axis == 0 else (j if axis == 1 else 0) for axis in range(d))
        for i in range(n)
        for j in range(3)
    ]
    points += [unit(d, axis) for axis in range(2, d)]
    out = PointSet.of(d, points)
    assert len(out) == 3 * n + d - 2
    return out


def dlines_general_position(d: int, lengths: Sequence[int]) -> PointSet:
    """d parallel APs along e_d based on a simplex in the hyperplane x_d = 0.

    Any k of the base points are affinely independent, so no k of the lines
    fit in a (k-1)-dimensional affine subspace.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    return freiman_aps(d, lengths)


CONSTRUCTIONS = {
    "stanchescu": (stanchescu_dk, ("d", "k")),
    "freiman-aps": (freiman_aps, ("d", "lengths")),
    "stan-doubling": (stan_doubling_tight, ("d", "n")),
    "dlines": (dlines_general_position, ("d", "lengths")),
}
