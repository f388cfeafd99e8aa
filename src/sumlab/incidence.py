"""Lines, hyperplanes, projections, line covers and supporting hyperplanes."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub
from typing import Sequence

from .linalg import greedy_basis, kernel_vector
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


def _shadow(a: PointSet, lv: tuple[int, ...]) -> tuple[int, list[tuple[int, ...]]]:
    """(s, keys) in integers, keys[i] / s being a.points[i] projected along lv: over the set's common
    denominator scale, p' = scale * p has key p' |lv|^2 - (p' . lv) lv, and s = scale * |lv|^2."""
    scale, pts = _over_common_denominator(a)
    norm = _dot(lv, lv)
    return scale * norm, [tuple(x * norm - t * y for x, y in zip(p, lv)) for p in pts for t in (_dot(p, lv),)]


def line_partition(a: PointSet, l: Direction) -> LinePartition:
    """Group points by the line parallel to l through them (exact projection keys); each
    class lists its points in lexicographic order, which is their order along l."""
    if not a.points:
        raise ValueError("cannot partition an empty set")
    if len(l.vec) != a.dim:
        raise ValueError("direction dimension mismatch")
    s, keys = _shadow(a, l.vec)
    groups: dict[tuple[int, ...], list[Point]] = {}
    for key, p in zip(keys, a.points):
        groups.setdefault(key, []).append(p)
    classes = tuple(
        (tuple(Fraction(x, s) for x in key), PointSet(a.dim, tuple(pts))) for key, pts in sorted(groups.items())
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


def _shadow_basis(shadow: Sequence[Sequence]) -> list:
    """Greedy basis of the difference space of the projected set."""
    base = shadow[0]
    return greedy_basis(tuple(map(sub, q, base)) for q in shadow[1:])


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _turn(
    pts: Sequence[tuple[int, ...]], n: tuple[int, ...], c: int, m: tuple[int, ...], cm: int
) -> tuple[tuple[int, ...], int]:
    """Rotate the supporting hyperplane n.x = c about its intersection with m.x = cm.

    m.x <= cm must hold on the points of n.x = c.  Among the points below the
    hyperplane, the one with the largest (m.p - cm) / (c - n.p) is met first;
    the returned primitive (normal, offset) passes through it and still has
    every point on the side n.x <= c had.
    """
    b, a = -1, 0
    for p in pts:
        below = c - _dot(n, p)
        if below:
            rise = _dot(m, p) - cm
            if a == 0 or rise * a > b * below:
                b, a = rise, below
    normal = tuple(b * x + a * y for x, y in zip(n, m))
    g = gcd(*normal)
    return tuple(x // g for x in normal), (b * c + a * cm) // g


def _facets(pts: list[tuple[int, ...]]) -> set[tuple[tuple[int, ...], int]]:
    """Facets of the convex hull of integer points, relative to their affine hull.

    Gift wrapping (Chand & Kapur 1970): each facet is a primitive outward
    (normal, offset), with normal.p <= offset on every point and the normal
    in the span of the points' differences.  The first facet comes from the
    face maximising basis[0], turned about itself until it spans a facet;
    every facet then hands its neighbours over its ridges, which are the
    facets of its own face one rank lower.  Rank 1 is the base case: the
    two endpoints.
    """
    basis = _shadow_basis(pts)
    if len(basis) == 1:
        u = _primitive_int(basis[0])
        values = [_dot(u, p) for p in pts]
        return {(u, max(values)), (tuple(-x for x in u), -min(values))}
    n = _primitive_int(basis[0])
    c = max(_dot(n, p) for p in pts)
    while True:
        face = [p for p in pts if _dot(n, p) == c]
        face_basis = _shadow_basis(face)
        if len(face_basis) == len(basis) - 1:
            break
        # m is constant on the face and orthogonal to n, so turning about it tilts n
        coeffs = kernel_vector([[_dot(v, b) for b in basis] for v in [*face_basis, n]], len(basis))
        m = _primitive([sum(x * b[i] for x, b in zip(coeffs, basis)) for i in range(len(n))])
        n, c = _turn(pts, n, c, m, _dot(m, face[0]))
    found = {(n, c)}
    todo = [(n, c)]
    while todo:
        n, c = todo.pop()
        for m, cm in _facets([p for p in pts if _dot(n, p) == c]):
            facet = _turn(pts, n, c, m, cm)
            if facet not in found:
                found.add(facet)
                todo.append(facet)
    return found


def supporting_hyperplanes(a: PointSet, l: Direction) -> list[Hyperplane]:
    """Hyperplanes parallel to l supporting the set along a facet of its shadow.

    The shadow is the exact projection of the set along l; every returned
    hyperplane has normal orthogonal to l, touches the set in a full facet of
    the shadow's convex hull, and keeps the whole set on one closed side.
    The facets are enumerated on the integer shadow from `_shadow`.
    """
    if not a.points:
        raise ValueError("empty set")
    if len(l.vec) != a.dim:
        raise ValueError("direction dimension mismatch")
    s, keys = _shadow(a, l.vec)
    shadow = sorted(set(keys))
    if len(shadow) == 1:
        raise ValueError("set projects to a single point along this direction")
    hs = (Hyperplane.of(n, Fraction(c, s)) for n, c in _facets(shadow))
    return sorted(hs, key=lambda h: (h.normal, h.offset))


def major_hyperplane(a: PointSet, l: Direction) -> Hyperplane:
    """Supporting hyperplane parallel to l holding the most set points.

    Ties break toward the lexicographically smallest (normal, offset).
    """
    scale, pts = _over_common_denominator(a)

    def incidences(h: Hyperplane) -> int:
        target = h.offset * scale
        return sum(_dot(h.normal, p) == target for p in pts)

    return max(supporting_hyperplanes(a, l), key=incidences)


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
    scale, pts = _over_common_denominator(a)
    groups: dict[int, list[Point]] = {}
    for q, p in zip(pts, a.points):
        groups.setdefault(_dot(h.normal, q), []).append(p)
    values = sorted(groups)
    if h.offset * scale >= values[-1] and values[0] < values[-1]:
        values = values[::-1]
    return [(Hyperplane(h.normal, Fraction(v, scale)), PointSet(a.dim, tuple(groups[v]))) for v in values]
