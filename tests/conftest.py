"""Shared brute-force oracles, independent of the library's own code paths."""

import itertools
from fractions import Fraction
from math import gcd, lcm

from sumlab import PointSet


def oracle_sum_count(points) -> int:
    return len(oracle_pair_sums(points, points))


def oracle_diff_count(points) -> int:
    return len(oracle_pair_diffs(points, points))


def oracle_pair_sum_count(a_points, b_points) -> int:
    return len(oracle_pair_sums(a_points, b_points))


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


def _canonical_direction(vec) -> tuple[int, ...]:
    """The primitive integer vector with positive first nonzero entry on the line of vec."""
    vec = [Fraction(x) for x in vec]
    scale = lcm(*(f.denominator for f in vec))
    ints = [int(f * scale) for f in vec]
    g = gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
    return tuple(x // g for x in ints)


def oracle_min_line_cover(points) -> tuple[tuple[int, ...], int]:
    """(direction vector, line count) of a minimal parallel-line cover, by brute force.

    Tries the direction of every pair of distinct points, each distinct direction
    once, and counts lines by the exact Fraction projection onto the direction's
    orthogonal complement; ties go to the smallest primitive, sign-canonical
    direction vector.
    """
    pts = sorted({tuple(Fraction(c) for c in p) for p in points})
    best = None
    for vec in {_canonical_direction([y - x for x, y in zip(p, q)]) for p, q in itertools.combinations(pts, 2)}:
        norm = sum(x * x for x in vec)
        lines = set()
        for r in pts:
            t = sum(c * x for c, x in zip(r, vec)) / norm
            lines.add(tuple(c - t * x for c, x in zip(r, vec)))
        if best is None or (len(lines), vec) < best:
            best = (len(lines), vec)
    return best[1], best[0]


def _fraction_dot(u, v):
    return sum((Fraction(x) * Fraction(y) for x, y in zip(u, v)), Fraction(0))


def oracle_line_partition(points, vec) -> list:
    """[(projection key, points of its line)] along vec, by brute force in Fractions.

    Each point is projected exactly onto the orthogonal complement of vec;
    classes come in increasing key order, and each lists its points by their
    position along vec taken with its first nonzero entry positive.
    """
    pts = [tuple(Fraction(c) for c in p) for p in points]
    vec = tuple(Fraction(x) for x in vec)
    forward = vec if next(x for x in vec if x) > 0 else tuple(-x for x in vec)
    norm = _fraction_dot(vec, vec)
    groups = {}
    for p in pts:
        t = _fraction_dot(p, vec) / norm
        groups.setdefault(tuple(c - t * x for c, x in zip(p, vec)), []).append(p)
    return [(key, tuple(sorted(cls, key=lambda p: _fraction_dot(p, forward)))) for key, cls in sorted(groups.items())]


def oracle_hyperplane_slices(points, normal, offset) -> list:
    """[(normal . p, points with that value)], by brute force in Fractions.

    Values decrease when offset is at or above every value and the values
    differ (the hyperplane supports the set from above); otherwise they increase.
    """
    groups = {}
    for p in points:
        groups.setdefault(_fraction_dot(normal, p), []).append(tuple(Fraction(c) for c in p))
    values = sorted(groups)
    if offset >= values[-1] and values[0] < values[-1]:
        values.reverse()
    return [(v, tuple(sorted(groups[v]))) for v in values]


def pset(dim, points) -> PointSet:
    return PointSet.of(dim, points)


class IntSubclass(int):
    """An int type other than int and bool, such as an IntEnum."""


class FractionSubclass(Fraction):
    """A Fraction type other than Fraction."""


def _fraction_rref(rows):
    """(reduced rows, pivot columns) of a Fraction matrix, by plain Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = next((i for i in range(len(pivots), len(rows)) if rows[i][col] != 0), None)
        if r is None:
            continue
        top = len(pivots)
        rows[top], rows[r] = rows[r], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][col] != 0:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[top])]
        pivots.append(col)
    return rows, pivots


def oracle_supporting_hyperplanes(points, vec):
    """Sorted (normal, offset) of the hyperplanes parallel to vec supporting a facet of the shadow.

    Brute force in Fractions: project every point exactly along vec, take a
    greedy basis of the shadow's difference space (rank k), and try every
    affinely independent k-subset of the shadow.  The normal in the span of
    the basis orthogonal to the subset's differences supports a facet when
    every shadow point lies on one closed side.  Normals are primitive
    integer vectors with positive first nonzero entry, offsets scaled alike.
    Returns None when the shadow is a single point.
    """
    pts = [tuple(Fraction(c) for c in p) for p in points]

    def dot(u, v):
        return sum((x * y for x, y in zip(u, v)), Fraction(0))

    shadow = sorted({tuple(c - dot(p, vec) / dot(vec, vec) * x for c, x in zip(p, vec)) for p in pts})
    if len(shadow) == 1:
        return None
    basis = []
    for q in shadow[1:]:
        diff = tuple(x - y for x, y in zip(q, shadow[0]))
        if len(_fraction_rref(basis + [diff])[1]) > len(basis):
            basis.append(diff)
    k = len(basis)
    found = set()
    for subset in itertools.combinations(shadow, k):
        rows = [[dot(tuple(x - y for x, y in zip(s, subset[0])), b) for b in basis] for s in subset[1:]]
        red, pivots = _fraction_rref(rows)
        if len(pivots) != k - 1:
            continue
        free = next(c for c in range(k) if c not in pivots)
        coeffs = [Fraction(0)] * k
        coeffs[free] = Fraction(1)
        for row, col in zip(red, pivots):
            coeffs[col] = -row[free]
        normal = [sum((c * b[i] for c, b in zip(coeffs, basis)), Fraction(0)) for i in range(len(vec))]
        offset = dot(normal, subset[0])
        values = [dot(normal, q) for q in shadow]
        if all(v <= offset for v in values) or all(v >= offset for v in values):
            scale = lcm(*(f.denominator for f in normal))
            ints = [int(f * scale) for f in normal]
            factor = Fraction(scale, gcd(*ints)) * (1 if next(x for x in ints if x) > 0 else -1)
            found.add((tuple(int(f * factor) for f in normal), offset * factor))
    return sorted(found)


def oracle_major_hyperplane(points, vec):
    """(normal, offset) of the oracle supporting hyperplane holding the most points.

    Ties go to the smallest (normal, offset); None when the shadow is a single point.
    """
    found = oracle_supporting_hyperplanes(points, vec)
    if found is None:
        return None
    pts = {tuple(Fraction(c) for c in p) for p in points}
    return min(found, key=lambda h: (-sum(_fraction_dot(h[0], p) == h[1] for p in pts), h))


def oracle_compress(points, normal, offset, vec) -> tuple:
    """(sorted image, point map) of the compression onto {x : normal . x = offset} along vec.

    From the definition, in Fractions: v is the primitive integer vector on
    vec's line with positive first nonzero entry; each line parallel to v is
    ordered by position along v, and its j-th point (from 0) goes to
    u + j v, where u is the line's meeting point with the hyperplane.
    """
    pts = [tuple(Fraction(c) for c in p) for p in points]
    v = _canonical_direction(vec)
    norm = _fraction_dot(v, v)
    lines = {}
    for p in pts:
        t = _fraction_dot(p, v) / norm
        lines.setdefault(tuple(c - t * x for c, x in zip(p, v)), []).append(p)
    mapping = {}
    for line in lines.values():
        line.sort(key=lambda p: _fraction_dot(p, v))
        p0 = line[0]
        t_star = (Fraction(offset) - _fraction_dot(normal, p0)) / _fraction_dot(normal, v)
        u = tuple(c + t_star * x for c, x in zip(p0, v))
        for j, p in enumerate(line):
            mapping[p] = tuple(c + j * x for c, x in zip(u, v))
    return tuple(sorted(set(mapping.values()))), mapping


def oracle_apply_affine(points, matrix, translation) -> tuple:
    """Sorted distinct images M p + t, computed in Fractions."""
    images = {
        tuple(_fraction_dot(row, p) + Fraction(t) for row, t in zip(matrix, translation)) for p in points
    }
    return tuple(sorted(images))
