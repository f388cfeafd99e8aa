"""Lines, hyperplanes, projections, line covers and supporting hyperplanes."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul, sub
from typing import Iterable, Sequence

from .linalg import affine_basis, kernel_vector
from .pointset import (
    Point, PointSet, _balanced, _from_sorted, _json_fields, _once, _pack, _scaled, _unpack, coerce_point,
)


def _primitive_int(vec: tuple[int, ...]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by its gcd, signed so the first nonzero entry is positive."""
    g = gcd(*vec)
    if g == 0:
        raise ValueError("zero vector has no direction")
    return tuple(x // g for x in vec) if vec > (0,) * len(vec) else tuple(x // -g for x in vec)


@dataclass(frozen=True)
class Direction:
    """Primitive integer vector with positive leading entry: one representation per line direction."""

    vec: tuple[int, ...]

    def __post_init__(self):
        # refused, not rewritten: a raw vector that `of` would change compresses unlike its own JSON
        vec = self.vec
        if type(vec) is not tuple or any(type(x) is not int for x in vec) or _primitive_int(vec) != vec:
            raise ValueError(f"raw direction {vec!r} is not a primitive int tuple with positive leading entry")

    @classmethod
    def of(cls, vec: Sequence) -> "Direction":
        """The direction of a nonzero vector of int, Fraction or "p/q" entries."""
        return cls(_primitive_int(_scaled([coerce_point(vec)])[1][0]))

    def to_json(self) -> dict:
        return {"vec": [str(x) for x in self.vec]}

    @classmethod
    def from_json(cls, obj: dict) -> "Direction":
        return cls.of(*_json_fields(obj, "direction", "vec"))


@dataclass(frozen=True)
class Hyperplane:
    """{x : normal . x = offset} with primitive sign-canonical integer normal (as `of` builds it)."""

    normal: tuple[int, ...]
    offset: int | Fraction

    def __post_init__(self):
        # types only, as for a raw Direction: a float here would carry inexact arithmetic into the kernels
        normal, offset = self.normal, self.offset
        if type(normal) is not tuple or any(type(x) is not int for x in normal) or not any(normal):
            raise ValueError(f"raw hyperplane normal {normal!r} is not a nonzero int tuple")
        if type(offset) is not int and type(offset) is not Fraction:
            raise ValueError(f"raw hyperplane offset {offset!r} is not an int or a Fraction")

    @classmethod
    def of(cls, normal: Sequence, offset) -> "Hyperplane":
        # over the least common scale the plane is n . x = c, integers n and c, and n = g p for p primitive
        _, (n, (c,)) = _scaled([coerce_point(normal), coerce_point([offset])])
        if not any(n):
            raise ValueError("zero normal")
        p = _primitive_int(n)
        i = next(i for i, x in enumerate(p) if x)
        return cls(p, Fraction(c, n[i] // p[i]))

    def to_json(self) -> dict:
        return {"normal": [str(x) for x in self.normal], "offset": str(self.offset)}

    @classmethod
    def from_json(cls, obj: dict) -> "Hyperplane":
        return cls.of(*_json_fields(obj, "hyperplane", "normal", "offset"))


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
    """(s, keys) in integers, keys[i] / s being a.points[i] projected along lv: the integer
    point p' = a.scale * p has key p' |lv|^2 - (p' . lv) lv, and s = a.scale * |lv|^2."""
    if not a.ints:
        raise ValueError("empty set")
    if len(lv) != a.dim:
        raise ValueError("direction dimension mismatch")
    return a.scale * _dot(lv, lv), _shadow_keys(a.ints, lv)


def _shadow_keys(pts: Sequence[tuple[int, ...]], lv: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The key p |lv|^2 - (p . lv) lv of each integer point p: two keys are equal exactly when
    their points lie on one line parallel to lv."""
    norm = _dot(lv, lv)
    return [tuple([x * norm - t * y for x, y in zip(p, lv)]) for p in pts for t in (_dot(p, lv),)]


def _group(items: Iterable, keys: Iterable) -> dict:
    """{key: the items with that key}: items[i] has keys[i], and groups and their items keep
    the order of first appearance."""
    groups: dict = {}
    for key, item in zip(keys, items):
        groups.setdefault(key, []).append(item)
    return groups


def line_partition(a: PointSet, l: Direction) -> LinePartition:
    """Group points by the line parallel to l through them (exact projection keys); each
    class lists its points in lexicographic order, which is their order along l."""
    s, keys = _shadow(a, l.vec)
    classes = tuple(
        (tuple(Fraction(x, s) for x in key), _from_sorted(a.dim, a.scale, pts))
        for key, pts in sorted(_group(a.ints, keys).items())
    )
    return LinePartition(l, classes)


def min_line_cover(a: PointSet) -> tuple[Direction, int]:
    """Direction minimising the number of parallel lines that cover the set.

    Searches every direction arising as a pairwise difference of set points.
    That is exact whenever the optimum is below |A|: an optimal line then
    carries two set points, so its direction is a pairwise difference.

    The work is on the codes of the set's integer points under the balanced
    radix of its own box (`pointset._balanced`): the code of q - p is
    code(q) - code(p), and distinct differences have distinct codes.  For
    each point q, the distinct codes q - p over the earlier points p are
    formed as one set of ints.  The points are in lexicographic order, so
    each such difference has a positive first nonzero entry, and dividing it
    by the gcd g of its entries gives its primitive direction, whose code is
    the difference's code divided by g.
    That gcd is taken once per distinct difference code, not once per pair.
    Each direction counts the points q that have an earlier point on their
    line; along it the set needs |A| minus that count lines.  Codes of
    directions order them lexicographically (`pointset._pack`), so ties go
    to the lexicographically smallest direction vector.
    """
    if len(a) < 2:
        raise ValueError("need at least two points")
    return _once(a, "min_line_cover", lambda: _min_line_cover(a))


def _min_line_cover(a: PointSet) -> tuple[Direction, int]:
    n = len(a)
    lo, hi, ranges = _balanced(a.ints)
    codes = _pack(a.ints, ranges)
    point = dict(zip(codes, a.ints))
    direction: dict[int, int] = {}  # difference code -> code of its primitive direction
    joined: Counter[int] = Counter()
    for j, (q, cq) in enumerate(zip(a.ints, codes)):
        row = {cq - cp for cp in codes[:j]}
        for c in row.difference(direction):
            direction[c] = c // gcd(*map(sub, q, point[cq - c]))
        joined.update({direction[c] for c in row})
    code, count = min(joined.items(), key=lambda item: (-item[1], item[0]))
    # a direction lies in the box of the differences, -(hi - lo) <= v <= hi - lo
    return Direction(_unpack([code], list(map(sub, lo, hi)), ranges)[0]), n - count


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _turn(
    pts: Sequence[tuple[int, ...]], heights: Sequence[int], n: tuple[int, ...], c: int, m: tuple[int, ...], cm: int
) -> tuple[tuple[int, ...], int]:
    """Rotate the supporting hyperplane n.x = c about its intersection with m.x = cm.

    heights[i] is c - n.pts[i], and m.x <= cm must hold on the points of
    n.x = c.  Among the points below the hyperplane, the one with the largest
    (m.p - cm) / (c - n.p) is met first; the returned primitive (normal,
    offset) passes through it and still has every point on the side n.x <= c
    had.
    """
    b, a = -1, 0
    for p, below in zip(pts, heights):
        if below:
            rise = _dot(m, p) - cm
            if a == 0 or rise * a > b * below:
                b, a = rise, below
    normal = tuple(b * x + a * y for x, y in zip(n, m))
    g = gcd(*normal)
    return tuple(x // g for x in normal), (b * c + a * cm) // g


def _facets(pts: list[tuple[int, ...]]) -> set[tuple[tuple[int, ...], int]]:
    """Facets of the convex hull of sorted, distinct integer points, relative to their affine hull.

    Gift wrapping (Chand & Kapur 1970): each facet is a primitive outward
    (normal, offset), with normal.p <= offset on every point and the normal
    in the span of the points' differences.  The one search is here, and it
    runs once: it builds the first chain, a flag of a facet of the points,
    then a facet of that facet's face within that face, and so on down to an
    edge.  Each level starts from the face maximising the first vector of
    its face's basis and turns about that face until it spans a facet; the
    basis of the facet's face, computed for that test, is the next level's
    basis, so the points are ranked once and each face the search meets is
    ranked once within its level.  `_hull` then wraps, entering every face
    through a facet it already knows, and ranks nothing.  Every face met is
    a sorted sublist of the points, so the sort is a precondition: one table
    per call holds the facets of each face, keyed by its point tuple, and
    `_hull` solves each face once.
    """
    pts = face = tuple(pts)
    basis = affine_basis(pts)
    flag = []
    while len(basis) > 1:
        n = _primitive_int(basis[0])
        c = max(_dot(n, p) for p in face)
        while True:
            heights = [c - _dot(n, p) for p in face]
            inner = tuple([p for p, h in zip(face, heights) if not h])
            inner_basis = affine_basis(inner)
            if len(inner_basis) == len(basis) - 1:
                break
            # m is constant on the face met and orthogonal to n, so turning about it tilts n
            coeffs = kernel_vector([[_dot(v, b) for b in basis] for v in [*inner_basis, n]], len(basis))
            m = _primitive_int(tuple(sum(x * b[i] for x, b in zip(coeffs, basis)) for i in range(len(n))))
            n, c = _turn(face, heights, n, c, m, _dot(m, inner[0]))
        flag.append((n, c))
        face, basis = inner, inner_basis
    # one facet per level, from the points' rank down to 2
    return set(_hull(pts, len(flag) + 1, flag, {}))


def _hull(pts: tuple, rank: int, flag: list, solved: dict) -> dict:
    """{facet: its face} of sorted points of the given affine rank, also stored as solved[pts].

    flag[0] is a facet (normal, offset) of the points, and flag[1:] is such a
    flag of that facet's face, unless that face is already in solved; a face
    of rank 1 needs none.  Within a face, each facet's heights c - n.p are
    computed once; they give its own face and the side every turn from it
    keeps, and a negative height is a fault of the hull, not of the input.
    A ridge is known by its point tuple, the same from both its facets, and
    is crossed from one side only.  A facet G reached from F over a ridge
    has that ridge as a facet of its own face, with outward normal
    |n_G|^2 n_F - (n_F . n_G) n_G (the component of n_F orthogonal to n_G,
    as in `_shadow_keys`) divided by its positive gcd; that ridge's face is
    solved, so this one facet is G's whole flag.  Rank 1 is the base case:
    the two endpoints, the first and last points.
    """
    if rank == 1:
        lo, hi = pts[0], pts[-1]
        u = _primitive_int(tuple(map(sub, hi, lo)))
        facets = {(u, _dot(u, hi)): (hi,), (tuple(-x for x in u), -_dot(u, lo)): (lo,)}
    else:
        facets = {}
        seeds = {flag[0]: flag[1:]}  # each facet found -> the flag its face is entered through
        crossed = set()
        todo = [flag[0]]
        while todo:
            n, c = facet = todo.pop()
            heights = [c - _dot(n, p) for p in pts]
            if min(heights) < 0:
                raise RuntimeError(f"hull fault: facet {facet} leaves a point outside")
            facets[facet] = face = tuple([p for p, h in zip(pts, heights) if not h])
            ridges = solved[face] if face in solved else _hull(face, rank - 1, seeds[facet], solved)
            for (m, cm), ridge in ridges.items():
                if ridge in crossed:
                    continue
                crossed.add(ridge)
                nxt = _turn(pts, heights, n, c, m, cm)
                if nxt not in seeds:
                    # the ridge as a facet of nxt's face; a sign-canonical `_primitive_int` could turn it inward
                    ng, cg = nxt
                    w, t = _dot(ng, ng), _dot(n, ng)
                    v = tuple([w * x - t * y for x, y in zip(n, ng)])
                    g = gcd(*v)
                    seeds[nxt] = [(tuple([x // g for x in v]), (w * c - t * cg) // g)]
                    todo.append(nxt)
    solved[pts] = facets
    return facets


def supporting_hyperplanes(a: PointSet, l: Direction) -> list[Hyperplane]:
    """Hyperplanes parallel to l supporting the set along a facet of its shadow.

    The shadow is the exact projection of the set along l; every returned
    hyperplane has normal orthogonal to l, touches the set in a full facet of
    the shadow's convex hull, and keeps the whole set on one closed side.
    The facets are enumerated on the integer shadow (s, keys) from `_shadow`.
    A facet n.k = c of the keys is the hyperplane n.x = c / s, since n is
    orthogonal to l; its primitive normal only needs the canonical sign.
    The list is sorted by (normal, offset).
    """
    return list(_once(a, ("supporting_hyperplanes", l.vec), lambda: _supporting_hyperplanes(a, l.vec)))


def _supporting_hyperplanes(a: PointSet, lv: tuple[int, ...]) -> tuple[Hyperplane, ...]:
    s, keys = _shadow(a, lv)
    shadow = sorted(set(keys))
    if len(shadow) == 1:
        raise ValueError("set projects to a single point along this direction")
    facets = sorted((m, c if m == n else -c) for n, c in _facets(shadow) for m in (_primitive_int(n),))
    return tuple(Hyperplane(n, Fraction(c, s)) for n, c in facets)


def major_hyperplane(a: PointSet, l: Direction) -> Hyperplane:
    """Supporting hyperplane parallel to l holding the most set points.

    Ties break toward the lexicographically smallest (normal, offset).
    """

    def incidences(h: Hyperplane) -> int:
        # p lies on h exactly when its integer point p' = scale * p has normal . p' = offset * scale
        target = h.offset * a.scale
        return sum(_dot(h.normal, p) == target for p in a.ints)

    return _once(a, ("major_hyperplane", l.vec), lambda: max(supporting_hyperplanes(a, l), key=incidences))


def hyperplane_slices(a: PointSet, h: Hyperplane) -> list[tuple[Hyperplane, PointSet]]:
    """Slice the set by the parallel hyperplanes through it, starting at h.

    Slices are ordered monotonically away from h's offset; when h supports the
    set from the larger-offset side the order is decreasing, otherwise
    increasing (the convention for an offset strictly inside the range).
    """
    if not a.ints:
        raise ValueError("empty set")
    if len(h.normal) != a.dim:
        raise ValueError("hyperplane dimension mismatch")
    return list(_once(a, ("hyperplane_slices", h), lambda: _hyperplane_slices(a, h)))


def _hyperplane_slices(a: PointSet, h: Hyperplane) -> tuple[tuple[Hyperplane, PointSet], ...]:
    groups = _group(a.ints, [_dot(h.normal, p) for p in a.ints])
    values = sorted(groups)
    if h.offset * a.scale >= values[-1] and values[0] < values[-1]:
        values = values[::-1]
    # each group keeps the order of a.ints, so its points are sorted
    return tuple((Hyperplane(h.normal, Fraction(v, a.scale)), _from_sorted(a.dim, a.scale, groups[v])) for v in values)
