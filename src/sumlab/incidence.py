"""Lines, hyperplanes, projections, line covers and supporting hyperplanes."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import sub
from typing import Sequence

from .linalg import affine_rank, kernel_vector, matrix_rank
from .pointset import Point, PointSet, _coerce_coord, _over_common_denominator, coerce_point, format_rational


def _primitive_int(vec: tuple[int, ...]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by its gcd, signed so the first nonzero entry is positive."""
    g = gcd(*vec)
    if g == 0:
        raise ValueError("zero vector has no direction")
    return tuple(x // g for x in vec) if vec > (0,) * len(vec) else tuple(x // -g for x in vec)


def _primitive(vec: Sequence) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive, sign-canonical integer vector."""
    fracs = coerce_point(vec)
    scale = lcm(*(f.denominator for f in fracs))
    return _primitive_int(tuple(f.numerator * (scale // f.denominator) for f in fracs))


@dataclass(frozen=True)
class Direction:
    """Primitive integer vector with positive leading entry: one representation per line direction."""

    vec: tuple[int, ...]

    @classmethod
    def of(cls, vec: Sequence) -> "Direction":
        return cls(_primitive(vec))

    def to_json(self) -> dict:
        return {"vec": [str(x) for x in self.vec]}

    @classmethod
    def from_json(cls, obj: dict) -> "Direction":
        return cls.of(obj["vec"])


@dataclass(frozen=True)
class Hyperplane:
    """{x : normal . x = offset} with primitive sign-canonical integer normal."""

    normal: tuple[int, ...]
    offset: Fraction

    @classmethod
    def of(cls, normal: Sequence, offset) -> "Hyperplane":
        fracs = coerce_point(normal)
        off = _coerce_coord(offset)
        if not any(fracs):
            raise ValueError("zero normal")
        ints = _primitive(fracs)
        i = next(i for i, f in enumerate(fracs) if f)
        return cls(ints, off * ints[i] / fracs[i])

    def value(self, p: Point) -> Fraction:
        return sum((n * c for n, c in zip(self.normal, p)), Fraction(0))

    def contains(self, p: Point) -> bool:
        return self.value(p) == self.offset

    def to_json(self) -> dict:
        return {"normal": [str(x) for x in self.normal], "offset": format_rational(self.offset)}

    @classmethod
    def from_json(cls, obj: dict) -> "Hyperplane":
        return cls.of(obj["normal"], obj["offset"])


def project_along(p: Point, l: Direction) -> Point:
    """Exact orthogonal projection of p onto the complement of the direction."""
    lv = l.vec
    denom = sum(x * x for x in lv)
    t = sum((c * x for c, x in zip(p, lv)), Fraction(0)) / denom
    return tuple(c - t * x for c, x in zip(p, lv))


@dataclass(frozen=True)
class LinePartition:
    """Partition of a set into its fibers along one direction."""

    direction: Direction
    classes: tuple[tuple[Point, PointSet], ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for _, c in self.classes)


def line_partition(a: PointSet, l: Direction) -> LinePartition:
    """Group points by the line parallel to l through them (exact projection keys)."""
    if not a.points:
        raise ValueError("cannot partition an empty set")
    if len(l.vec) != a.dim:
        raise ValueError("direction dimension mismatch")
    groups: dict[Point, list[Point]] = {}
    for p in a.points:
        groups.setdefault(project_along(p, l), []).append(p)
    classes = tuple(
        (key, PointSet(a.dim, tuple(pts))) for key, pts in sorted(groups.items())
    )
    return LinePartition(l, classes)


def min_line_cover(a: PointSet) -> tuple[Direction, int]:
    """Direction minimising the number of parallel lines that cover the set.

    Searches every direction arising as a pairwise difference of set points.
    That is exact whenever the optimum is below |A|: an optimal line then
    carries two set points, so its direction is a pairwise difference.

    The points are scaled to integers over the lcm of their denominators (a
    positive factor, so no direction changes).  Each pair i < j is bucketed by
    its primitive sign-canonical direction, and each bucket counts the points
    j that have an earlier point on their line; along that direction the set
    needs |A| minus that count lines.  This is O(|A|^2) integer work in all,
    with no partition built.  Ties are broken toward the lexicographically
    smallest direction vector.
    """
    n = len(a)
    if n < 2:
        raise ValueError("need at least two points")
    _, pts = _over_common_denominator(a)
    joined: Counter[tuple[int, ...]] = Counter()
    for j, q in enumerate(pts):
        joined.update({_primitive_int(tuple(map(sub, q, p))) for p in pts[:j]})
    vec, count = min(joined.items(), key=lambda item: (-item[1], item[0]))
    return Direction(vec), n - count


def _shadow_basis(shadow: list[Point]) -> list[Point]:
    """Greedy basis of the difference space of the projected set."""
    base = shadow[0]
    basis: list[Point] = []
    for q in shadow[1:]:
        diff = tuple(x - y for x, y in zip(q, base))
        if matrix_rank(basis + [diff]) > len(basis):
            basis.append(diff)
    return basis


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _hull_2d(coords: list[tuple[Fraction, Fraction]]) -> list[int]:
    """Indices of hull vertices in counterclockwise order (monotone chain, strict turns)."""
    order = sorted(range(len(coords)), key=lambda i: coords[i])

    def cross(o, a, b):
        (ox, oy), (ax, ay), (bx, by) = coords[o], coords[a], coords[b]
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)

    lower: list[int] = []
    for i in order:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], i) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in reversed(order):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], i) <= 0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


def supporting_hyperplanes(a: PointSet, l: Direction) -> list[Hyperplane]:
    """Hyperplanes parallel to l supporting the set along a facet of its shadow.

    The shadow is the exact projection of the set along l; every returned
    hyperplane has normal orthogonal to l, touches the set in a full facet of
    the shadow's convex hull, and keeps the whole set on one closed side.
    """
    if not a.points:
        raise ValueError("empty set")
    if len(l.vec) != a.dim:
        raise ValueError("direction dimension mismatch")
    shadow = sorted({project_along(p, l) for p in a.points})
    if len(shadow) == 1:
        raise ValueError("set projects to a single point along this direction")
    basis = _shadow_basis(shadow)
    k = len(basis)
    q0 = shadow[0]
    found: set[Hyperplane] = set()

    if k == 1:
        u = basis[0]
        j = next(i for i, x in enumerate(u) if x != 0)
        params = [(q[j] - q0[j]) / u[j] for q in shadow]
        for extreme in (shadow[params.index(min(params))], shadow[params.index(max(params))]):
            found.add(Hyperplane.of(u, _dot(u, extreme)))
    elif k == 2:
        coords = [_planar_coords(q, q0, basis) for q in shadow]
        hull = _hull_2d(coords)
        for idx in range(len(hull)):
            qa = shadow[hull[idx]]
            qb = shadow[hull[(idx + 1) % len(hull)]]
            delta = tuple(x - y for x, y in zip(qb, qa))
            g0, g1 = _dot(basis[0], delta), _dot(basis[1], delta)
            normal = tuple(g1 * b0 - g0 * b1 for b0, b1 in zip(basis[0], basis[1]))
            found.add(Hyperplane.of(normal, _dot(normal, qa)))
    else:
        for subset in itertools.combinations(shadow, k):
            if affine_rank(subset) != k - 1:
                continue
            s0 = subset[0]
            rows = [
                [_dot(tuple(x - y for x, y in zip(s, s0)), b) for b in basis]
                for s in subset[1:]
            ]
            coeffs = kernel_vector(rows, k)
            if coeffs is None:
                continue
            normal = tuple(
                sum((c * b[i] for c, b in zip(coeffs, basis)), Fraction(0))
                for i in range(a.dim)
            )
            c0 = _dot(normal, s0)
            vals = [_dot(normal, q) for q in shadow]
            if all(v <= c0 for v in vals) or all(v >= c0 for v in vals):
                found.add(Hyperplane.of(normal, c0))

    return sorted(found, key=lambda h: (h.normal, h.offset))


def _planar_coords(q: Point, q0: Point, basis: list[Point]) -> tuple[Fraction, Fraction]:
    """Coordinates of q - q0 in the 2-dimensional difference basis (exact solve)."""
    diff = tuple(x - y for x, y in zip(q, q0))
    b0, b1 = basis
    for i, j in itertools.combinations(range(len(q)), 2):
        det = b0[i] * b1[j] - b0[j] * b1[i]
        if det != 0:
            alpha = (diff[i] * b1[j] - diff[j] * b1[i]) / det
            beta = (b0[i] * diff[j] - b0[j] * diff[i]) / det
            return alpha, beta
    raise AssertionError("degenerate basis")


def major_hyperplane(a: PointSet, l: Direction) -> Hyperplane:
    """Supporting hyperplane parallel to l holding the most set points.

    Ties break toward the lexicographically smallest (normal, offset).
    """
    best: Hyperplane | None = None
    best_count = -1
    for h in supporting_hyperplanes(a, l):
        count = sum(1 for p in a.points if h.contains(p))
        if count > best_count:
            best, best_count = h, count
    assert best is not None
    return best


def hyperplane_slices(a: PointSet, h: Hyperplane) -> list[tuple[Hyperplane, PointSet]]:
    """Slice the set by the parallel hyperplanes through it, starting at h.

    Slices are ordered monotonically away from h's offset; when h supports the
    set from the larger-offset side the order is decreasing, otherwise
    increasing (the convention for an offset strictly inside the range).
    """
    if not a.points:
        raise ValueError("empty set")
    if len(h.normal) != a.dim:
        raise ValueError("hyperplane dimension mismatch")
    groups: dict[Fraction, list[Point]] = {}
    for p in a.points:
        groups.setdefault(h.value(p), []).append(p)
    values = sorted(groups)
    if h.offset >= values[-1] and values[0] < values[-1]:
        values = values[::-1]
    return [(Hyperplane(h.normal, v), PointSet(a.dim, tuple(groups[v]))) for v in values]
