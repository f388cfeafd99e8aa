"""Shared brute-force oracles, independent of the library's own code paths."""

import itertools
from fractions import Fraction
from math import gcd, lcm

from sumlab import PointSet


def oracle_sum_count(points) -> int:
    pts = [tuple(Fraction(c) for c in p) for p in points]
    return len({tuple(a + b for a, b in zip(p, q)) for p in pts for q in pts})


def oracle_diff_count(points) -> int:
    pts = [tuple(Fraction(c) for c in p) for p in points]
    return len({tuple(a - b for a, b in zip(p, q)) for p in pts for q in pts})


def oracle_pair_sum_count(a_points, b_points) -> int:
    pa = [tuple(Fraction(c) for c in p) for p in a_points]
    pb = [tuple(Fraction(c) for c in p) for p in b_points]
    return len({tuple(x + y for x, y in zip(p, q)) for p in pa for q in pb})


def oracle_pair_sums(a_points, b_points) -> tuple:
    """Sorted distinct sums p + q, computed in Fractions."""
    pa = [tuple(Fraction(c) for c in p) for p in a_points]
    pb = [tuple(Fraction(c) for c in p) for p in b_points]
    return tuple(sorted({tuple(x + y for x, y in zip(p, q)) for p in pa for q in pb}))


def oracle_pair_diffs(a_points, b_points) -> tuple:
    """Sorted distinct differences p - q, computed in Fractions."""
    pa = [tuple(Fraction(c) for c in p) for p in a_points]
    pb = [tuple(Fraction(c) for c in p) for p in b_points]
    return tuple(sorted({tuple(x - y for x, y in zip(p, q)) for p in pa for q in pb}))


def oracle_min_line_cover(points) -> tuple[tuple[int, ...], int]:
    """(direction vector, line count) of a minimal parallel-line cover, by brute force.

    Tries the direction of every pair of distinct points and counts lines by
    the exact Fraction projection onto the direction's orthogonal complement;
    ties go to the smallest primitive, sign-canonical direction vector.
    """
    pts = sorted({tuple(Fraction(c) for c in p) for p in points})
    best = None
    for p, q in itertools.combinations(pts, 2):
        diff = [y - x for x, y in zip(p, q)]
        scale = lcm(*(f.denominator for f in diff))
        ints = [int(f * scale) for f in diff]
        g = gcd(*ints)
        sign = 1 if next(x for x in ints if x) > 0 else -1
        vec = tuple(sign * x // g for x in ints)
        norm = sum(x * x for x in vec)
        lines = set()
        for r in pts:
            t = sum(c * x for c, x in zip(r, vec)) / norm
            lines.add(tuple(c - t * x for c, x in zip(r, vec)))
        if best is None or (len(lines), vec) < best:
            best = (len(lines), vec)
    return best[1], best[0]


def pset(dim, points) -> PointSet:
    return PointSet.of(dim, points)
