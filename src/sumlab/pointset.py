"""Finite sets of rational points with exact set arithmetic.

All coordinates are `fractions.Fraction` values, stored in lowest terms with
positive denominator, so membership and deduplication are exact: no rounding
can ever create or destroy a collision in a sumset.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, ge, sub
from typing import Iterable, Sequence

from .linalg import affine_rank, invert_matrix, mat_vec

Rational = Fraction
Point = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "3" or "-1/2"; rejects floats, whitespace and zero denominators."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not an integer or p/q rational string: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rational(value) -> str:
    return str(Fraction(value))


def _coerce_coord(c) -> Fraction:
    """A coordinate from a Fraction, an int (not a bool) or a "p/q" string; anything else is a ValueError."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, str):
        return parse_rational(c)
    if isinstance(c, int) and not isinstance(c, bool):
        return Fraction(c)
    raise ValueError(f"{type(c).__name__} coordinate {c!r} rejected; use int, Fraction or 'p/q' string")


def coerce_point(coords: Sequence, dim: int | None = None) -> Point:
    """Normalize a list or tuple of coordinates to a tuple of Fractions."""
    if not isinstance(coords, (list, tuple)):
        raise ValueError(f"a point must be a list or tuple of coordinates, got {coords!r}")
    pt = tuple(_coerce_coord(c) for c in coords)
    if not pt:
        raise ValueError("points must have at least one coordinate")
    if dim is not None and len(pt) != dim:
        raise ValueError(f"point of length {len(pt)} in ambient dimension {dim}")
    return pt


def unit(dim: int, axis: int) -> tuple[int, ...]:
    """The standard basis vector e_axis of Z^dim (equal, as a tuple, to its Fraction form)."""
    return tuple(1 if i == axis else 0 for i in range(dim))


@dataclass(frozen=True)
class PointSet:
    """Deduplicated, lexicographically ordered finite subset of Q^dim."""

    dim: int
    points: tuple[Point, ...]

    def __post_init__(self):
        pts = self.points
        bad = next((p for p in pts if len(p) != self.dim), None)
        if bad is not None:
            raise ValueError(f"point {bad} has length {len(bad)} in ambient dimension {self.dim}")
        if any(map(ge, pts, pts[1:])):
            bad = next(q for p, q in zip(pts, pts[1:]) if p >= q)
            raise ValueError(f"points must be strictly increasing: {bad} repeats or follows a larger point")

    @classmethod
    def of(cls, dim: int, points: Iterable[Sequence]) -> "PointSet":
        if dim < 1:
            raise ValueError("ambient dimension must be positive")
        pts = sorted({coerce_point(p, dim) for p in points})
        return cls(dim, tuple(pts))

    @cached_property
    def _members(self) -> frozenset[Point]:
        return frozenset(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, item) -> bool:
        return coerce_point(item, self.dim) in self._members

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "points": [[format_rational(c) for c in p] for p in self.points],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PointSet":
        if not isinstance(obj, dict) or "dim" not in obj or "points" not in obj:
            raise ValueError("point-set JSON needs 'dim' and 'points'")
        dim = obj["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ValueError(f"bad dimension: {dim!r}")
        if not isinstance(obj["points"], list):
            raise ValueError(f"'points' must be a list of points, got {obj['points']!r}")
        pts = [coerce_point(p, dim) for p in obj["points"]]
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points in input")
        return cls.of(dim, pts)


def _require_pair(a: PointSet, b: PointSet) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if not a.points or not b.points:
        raise ValueError("set arithmetic requires nonempty operands")


def _over_common_denominator(*sets: PointSet) -> tuple:
    """(scale, integer points of each set): the points times the lcm of all denominators.

    The scale is positive, so sums, differences, directions and lexicographic
    order all carry over between the integer and the rational points.
    """
    scale = lcm(*{c.denominator for s in sets for p in s.points for c in p})
    return (scale, *(
        [tuple([c.numerator * (scale // c.denominator) for c in p]) for p in s.points]
        for s in sets
    ))


def _from_integers(dim: int, scale: int, points: set[tuple[int, ...]]) -> PointSet:
    """The set of points / scale, building one Fraction per distinct coordinate value."""
    fracs = {x: Fraction(x, scale) for x in {x for p in points for x in p}}
    return PointSet(dim, tuple(tuple(map(fracs.__getitem__, p)) for p in sorted(points)))


def sumset(a: PointSet, b: PointSet) -> PointSet:
    """All pairwise sums a + b, deduplicated exactly (in integers over one denominator)."""
    _require_pair(a, b)
    scale, pa, pb = _over_common_denominator(a, b)
    return _from_integers(a.dim, scale, {tuple(map(add, p, q)) for p in pa for q in pb})


def difference_set(a: PointSet, b: PointSet) -> PointSet:
    """All pairwise differences a - b, deduplicated exactly (in integers over one denominator)."""
    _require_pair(a, b)
    scale, pa, pb = _over_common_denominator(a, b)
    return _from_integers(a.dim, scale, {tuple(map(sub, p, q)) for p in pa for q in pb})


def affine_dimension(a: PointSet) -> int:
    """Dimension of the affine span: rank of {p - p0}. 0 for singletons."""
    if not a.points:
        raise ValueError("empty set has no affine dimension")
    return affine_rank(a.points)


def negate(a: PointSet) -> PointSet:
    return PointSet(a.dim, tuple(sorted(tuple(-c for c in p) for p in a.points)))


def translate(a: PointSet, t: Sequence) -> PointSet:
    vec = coerce_point(t, a.dim)
    return PointSet(a.dim, tuple(sorted(tuple(x + y for x, y in zip(p, vec)) for p in a.points)))


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + translation with an invertible rational matrix."""

    matrix: tuple[Point, ...]
    translation: Point
    _inverse_matrix: tuple[Point, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.matrix)
        if n == 0 or any(len(row) != n for row in self.matrix) or len(self.translation) != n:
            raise ValueError("affine map needs a square matrix and a matching translation")
        inv = invert_matrix(self.matrix)
        if inv is None:
            raise ValueError("singular matrix")
        object.__setattr__(self, "_inverse_matrix", inv)

    @classmethod
    def of(cls, matrix: Sequence[Sequence], translation: Sequence) -> "AffineMap":
        rows = tuple(coerce_point(row) for row in matrix)
        return cls(rows, coerce_point(translation))

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        return cls.of([unit(dim, i) for i in range(dim)], (0,) * dim)

    def apply(self, p: Point) -> Point:
        return tuple(x + t for x, t in zip(mat_vec(self.matrix, p), self.translation))

    @cached_property
    def inverse(self) -> "AffineMap":
        inv = self._inverse_matrix
        return AffineMap(inv, tuple(-c for c in mat_vec(inv, self.translation)))

    def to_json(self) -> dict:
        return {
            "matrix": [[format_rational(c) for c in row] for row in self.matrix],
            "translation": [format_rational(c) for c in self.translation],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AffineMap":
        return cls.of(obj["matrix"], obj["translation"])


def apply_affine(a: PointSet, t: AffineMap) -> PointSet:
    """Image of the set; cardinality is preserved because the map is invertible."""
    if len(t.translation) != a.dim:
        raise ValueError("affine map dimension mismatch")
    image = PointSet.of(a.dim, (t.apply(p) for p in a.points))
    if len(image) != len(a):
        raise RuntimeError(f"affine image postcondition failed: {len(a)} points went to {len(image)}")
    return image
