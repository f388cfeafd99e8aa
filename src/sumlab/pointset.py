"""Finite sets of rational points with exact set arithmetic.

A set is stored as integer points over its least common denominator, so sums,
differences, ranks and membership are exact integer work: no rounding can ever
create or destroy a collision in a sumset.  Pairwise sums and differences are
counted on one int per point, a mixed-radix (Kronecker) code that is linear and
one-to-one on the vectors involved (`_pack`), so a sum of two points
is one int addition and only the distinct results are decoded back to points.
Coordinates are read as ints, `fractions.Fraction` values or "p/q" text, and
written as `Fraction` values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from math import gcd, lcm
from operator import ge, mul
from typing import Iterable, Sequence

from .linalg import affine_rank, greedy_basis, invert_matrix

Rational = Fraction
Point = tuple[Fraction, ...]

# ASCII digits only, matched against the whole string (no trailing newline)
_INTEGER_RE = re.compile(r"-?[0-9]+")
_RATIONAL_RE = re.compile(rf"{_INTEGER_RE.pattern}(?:/[0-9]+)?")


# A trace repeats few number texts many times: 1,200 jobs of sumbench's certify workload at seed 21
# read 2,067 distinct texts 302,624 times.  A hit takes 0.08 us and a parse 2.3-2.5 us (CPython 3.11.7),
# and 4096 entries, full, hold about 0.7 MiB.
@lru_cache(maxsize=4096)
def parse_rational(text: str) -> int | Fraction:
    """Parse "3" as an int or "-1/2" as a Fraction; rejects floats, whitespace and zero denominators."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not an integer or p/q rational string: {text!r}")
    if "/" not in text:
        return int(text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def _coerce_coord(c) -> int | Fraction:
    """A "p/q" string parsed, an int or a Fraction unchanged, and a subclass of one of the three
    (not a bool) read as its base type; anything else is a ValueError."""
    t = type(c)
    if t is str:
        return parse_rational(c)
    if t is int or t is Fraction:
        return c
    if isinstance(c, str):
        return parse_rational(c)
    if isinstance(c, Fraction):
        return Fraction(c)
    if isinstance(c, int) and not isinstance(c, bool):
        return int(c)
    raise ValueError(f"{type(c).__name__} coordinate {c!r} rejected; use int, Fraction or 'p/q' string")


def coerce_point(coords: Sequence, dim: int | None = None) -> tuple[int | Fraction, ...]:
    """Check a list or tuple of coordinates and return it as a tuple of ints and Fractions."""
    if not isinstance(coords, (list, tuple)):
        raise ValueError(f"a point must be a list or tuple of coordinates, got {coords!r}")
    pt = tuple(map(_coerce_coord, coords))
    if not pt:
        raise ValueError("points must have at least one coordinate")
    if dim is not None and len(pt) != dim:
        raise ValueError(f"point of length {len(pt)} in ambient dimension {dim}")
    return pt


def _require_exact(values: Iterable, what: str) -> None:
    """Refuse any value but an int or a Fraction, the values that have a least common denominator."""
    bad = [c for c in values if type(c) not in (int, Fraction)]
    if bad:
        raise ValueError(f"{type(bad[0]).__name__} {what} {bad[0]!r} rejected; use int or Fraction")


def _json_fields(obj, what: str, *keys: str) -> list:
    """[obj[key] for each key], raising ValueError unless obj is a JSON object holding every key."""
    if not isinstance(obj, dict) or any(key not in obj for key in keys):
        raise ValueError(f"{what} JSON needs {' and '.join(map(repr, keys))}")
    return [obj[key] for key in keys]


def unit(dim: int, axis: int) -> tuple[int, ...]:
    """The standard basis vector e_axis of Z^dim (equal, as a tuple, to its Fraction form)."""
    return tuple(1 if i == axis else 0 for i in range(dim))


def _scaled(rows: Sequence[Sequence]) -> tuple[int, list[tuple[int, ...]]]:
    """(m, each row times m as an integer tuple), m the lcm of the denominators of the rows'
    int and Fraction entries: the least positive integer that makes every entry an integer."""
    m = lcm(*{c.denominator for row in rows for c in row})
    if m == 1:
        return m, [tuple([c.numerator for c in row]) for row in rows]
    return m, [tuple([c.numerator * (m // c.denominator) for c in row]) for row in rows]


@dataclass(frozen=True, init=False)
class PointSet:
    """Deduplicated, lexicographically ordered finite subset of Q^dim, stored as `ints`: the
    points times `scale`, the least positive integer that makes every coordinate an integer,
    as integer tuples in strictly increasing order, so equal sets have equal fields.  `points`
    is the same set as `Fraction` tuples.

    A set is immutable, so each fact the kernels derive from it is computed once and kept in
    the set's private memo (`_once`): its affine dimension, |A + A| and |A - A| (also recorded
    by `sumset(a, a)` and `difference_set(a, a)`), its `min_line_cover`, its line partition and
    its supporting and major hyperplanes along each direction, and its slices by each
    hyperplane.  `==` and `hash` read only `dim`, `scale` and `ints`, never the memo."""

    dim: int
    scale: int
    ints: tuple[tuple[int, ...], ...]

    def __init__(self, dim: int, points: Sequence[Sequence]):
        _require_exact(chain.from_iterable(points), "coordinate")
        if any(map(ge, points, points[1:])):
            bad = next(q for p, q in zip(points, points[1:]) if p >= q)
            raise ValueError(f"points must be strictly increasing: {bad} repeats or follows a larger point")
        self.__dict__.update(vars(PointSet.of(dim, points)))  # past the frozen __setattr__

    @classmethod
    def of(cls, dim: int, points: Iterable[Sequence]) -> "PointSet":
        """The one way in for outside points, each a list or tuple of dim int, Fraction or "p/q" coordinates."""
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ValueError(f"bad dimension: {dim!r}")
        return _from_integers(dim, *_scaled([coerce_point(p, dim) for p in points]))

    @cached_property
    def points(self) -> tuple[Point, ...]:
        """The points as Fraction tuples, building one Fraction per distinct coordinate value."""
        s = self.scale
        fracs = {x: Fraction(x, s) for x in {x for p in self.ints for x in p}}
        return tuple(tuple(map(fracs.__getitem__, p)) for p in self.ints)

    @cached_property
    def _members(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.ints)

    @cached_property
    def _memo(self) -> dict:
        return {}

    def __len__(self) -> int:
        return len(self.ints)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, item) -> bool:
        # the point, over its own least scale m, is on the set's lattice when m divides the scale
        m, (p,) = _scaled([coerce_point(item, self.dim)])
        return self.scale % m == 0 and tuple([x * (self.scale // m) for x in p]) in self._members

    def to_json(self) -> dict:
        return {"dim": self.dim, "points": _texts(self.scale, self.ints)}

    @classmethod
    def from_json(cls, obj: dict) -> "PointSet":
        dim, points = _json_fields(obj, "point-set", "dim", "points")
        if not isinstance(points, list):
            raise ValueError(f"'points' must be a list of points, got {points!r}")
        out = cls.of(dim, points)
        if len(out) != len(points):
            raise ValueError("duplicate points in input")
        return out


def _texts(scale: int, ints: Sequence[Sequence[int]]) -> list[list[str]]:
    """The points / scale as lists of coordinate text, x / scale in lowest terms; the text of each
    distinct coordinate is built once."""
    text = {x: str(x) if scale == 1 else str(Fraction(x, scale)) for x in {x for p in ints for x in p}}
    return [[text[x] for x in p] for p in ints]


def _from_integers(dim: int, scale: int, points: Iterable[tuple[int, ...]]) -> PointSet:
    """The set of the distinct points / scale, for a positive integer scale and integer points of
    length dim, which it trusts: sorted, they are in strictly increasing order, and dividing by
    their gcd with the scale leaves the least scale.  Points from outside enter through `PointSet.of`."""
    return _from_sorted(dim, scale, sorted(set(points)))


def _from_sorted(dim: int, scale: int, ints: Sequence[tuple[int, ...]]) -> PointSet:
    """`_from_integers` for integer points already in strictly increasing order."""
    g = gcd(scale, *chain.from_iterable(ints)) if scale > 1 else 1
    if g > 1:
        scale //= g
        ints = [tuple([x // g for x in p]) for p in ints]
    out = object.__new__(PointSet)
    out.__dict__.update(dim=dim, scale=scale, ints=tuple(ints))
    return out


def _once(a: PointSet, key, compute):
    """The fact about a under key: compute() on first use, kept in a's memo after; a compute()
    that raises keeps nothing.  So a check of the arguments inside compute() runs on every call
    that could fail it, as long as the key holds every argument besides a that the check reads."""
    memo = a._memo
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _box(points: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """(lo, hi): the least and the largest coordinate of the points on each axis."""
    cols = list(zip(*points))
    return list(map(min, cols)), list(map(max, cols))


def _balanced(points: Sequence[Sequence[int]]) -> tuple[list[int], list[int], list[int]]:
    """(lo, hi, ranges): the points' box lo <= p <= hi and the balanced radix
    ranges[i] = 2 (hi_i - lo_i) + 1.  Two differences of the points differ by at most
    2 (hi_i - lo_i) on axis i, so distinct differences have distinct codes under it (`_pack`)."""
    lo, hi = _box(points)
    return lo, hi, [2 * (h - l) + 1 for l, h in zip(lo, hi)]


def _pack(points: Sequence[Sequence[int]], ranges: Sequence[int]) -> list[int]:
    """The code of each integer point p in the mixed radix whose digit i takes ranges[i]
    values: w . p with w[d-1] = 1 and w[i] = w[i+1] * ranges[i+1], by Horner's rule.

    The code is linear, and it is one-to-one on the vectors v with |v_i| < ranges[i] on every
    axis: if v is nonzero with first nonzero entry v_i, then |w_i v_i| >= w_i, while
    |sum_{j>i} w_j v_j| <= sum_{j>i} w_j (ranges[j] - 1) = w_i - 1, the sum telescoping.  By
    the same bound, when |u_i - v_i| < ranges[i] on every axis, u precedes v lexicographically
    exactly when the code of u is less than the code of v.
    """
    codes = [0] * len(points)
    for col, r in zip(zip(*points), ranges):
        codes = [c * r + x for c, x in zip(codes, col)]
    return codes


def _unpack(codes: Sequence[int], lo: Sequence[int], ranges: Sequence[int]) -> list[tuple[int, ...]]:
    """The integer points with the given codes under `_pack` with these ranges, each point p
    lying in the box lo_i <= p_i < lo_i + ranges[i]; codes in increasing order give points in
    lexicographic order.  The last coordinate x of the point with code c is the one value in
    its range of the box congruent to c modulo its range r, and (c - x) / r is the code of the
    point's other coordinates."""
    rest = codes
    cols = []
    for r, low in zip(ranges[:0:-1], lo[:0:-1]):
        col = [(c - low) % r + low for c in rest]
        cols.append(col)
        rest = [(c - x) // r for c, x in zip(rest, col)]
    cols.append(rest)
    return list(zip(*reversed(cols)))


def _pairwise(a: PointSet, b: PointSet, sign: int) -> tuple[int, set[int], list[int], list[int]]:
    """(scale, codes, lo, ranges): the distinct p + sign * q for p in a, q in b, which are
    integer points over scale in the box lo + [0, ranges), as their codes under `_pack`.

    Over the common scale (the lcm of the two), a's points lie in a box [la, ha] and b's in
    [lb, hb], so every p + q lies in [la + lb, ha + hb] and every p - q in [la - hb, ha - lb].
    Two results of one sign thus differ by less than ranges[i] = (ha_i - la_i) +
    (hb_i - lb_i) + 1 on axis i.  The code is one-to-one on such differences (`_pack`), so
    distinct results have distinct codes, and it is linear, so the code of p + sign * q is
    code(p) + sign * code(q): each operand is encoded once and each pair costs one int
    addition.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if not a.ints or not b.ints:
        raise ValueError("set arithmetic requires nonempty operands")
    # a's points times ma and b's times mb are integer points over the common scale
    scale = lcm(a.scale, b.scale)
    ma, mb = scale // a.scale, scale // b.scale
    (la, ha), (lb, hb) = _box(a.ints), _box(b.ints)
    ranges = [ma * (h - l) + mb * (k - j) + 1 for l, h, j, k in zip(la, ha, lb, hb)]
    ca = [ma * c for c in _pack(a.ints, ranges)]
    cb = [mb * c for c in _pack(b.ints, ranges)]
    if sign > 0:
        return scale, {x + y for x in ca for y in cb}, [ma * l + mb * j for l, j in zip(la, lb)], ranges
    return scale, {x - y for x in ca for y in cb}, [ma * l - mb * k for l, k in zip(la, hb)], ranges


def _pair_set(a: PointSet, b: PointSet, sign: int, count_key: str) -> PointSet:
    scale, codes, lo, ranges = _pairwise(a, b, sign)
    # sorted codes decode to points in lexicographic order (`_unpack`)
    out = _from_sorted(a.dim, scale, _unpack(sorted(codes), lo, ranges))
    if b is a:
        a._memo[count_key] = len(out)
    return out


def _self_count(a: PointSet, sign: int) -> int:
    """|A + A| for sign 1, |A - A| for sign -1, counted on a's codes under its balanced radix
    (`_balanced`): two sums of its points, like two differences, differ by at most
    2 (hi_i - lo_i) on axis i, so distinct results have distinct codes."""
    codes = _pack(a.ints, _balanced(a.ints)[2])
    if sign > 0:
        return len({x + y for x in codes for y in codes})
    return len({x - y for x in codes for y in codes})


def _pair_count(a: PointSet, b: PointSet, sign: int, count_key: str) -> int:
    # an empty a is refused by `_pairwise` on every call, as the memo never holds its count
    if b is a and a.ints:
        return _once(a, count_key, lambda: _self_count(a, sign))
    return len(_pairwise(a, b, sign)[1])


def sumset(a: PointSet, b: PointSet) -> PointSet:
    """All pairwise sums a + b, deduplicated exactly (on integer codes over one denominator)."""
    return _pair_set(a, b, 1, "sumset_count")


def difference_set(a: PointSet, b: PointSet) -> PointSet:
    """All pairwise differences a - b, deduplicated exactly (on integer codes over one denominator)."""
    return _pair_set(a, b, -1, "difference_count")


def sumset_count(a: PointSet, b: PointSet) -> int:
    """|A + B|, counted on integer codes over one denominator without building the set."""
    return _pair_count(a, b, 1, "sumset_count")


def difference_count(a: PointSet, b: PointSet) -> int:
    """|A - B|, counted on integer codes over one denominator without building the set."""
    return _pair_count(a, b, -1, "difference_count")


def affine_dimension(a: PointSet) -> int:
    """Dimension of the affine span: rank of {p - p0}. 0 for singletons."""
    if not a.ints:
        raise ValueError("empty set has no affine dimension")
    return _once(a, "affine_dimension", lambda: affine_rank(a.ints))


def negate(a: PointSet) -> PointSet:
    return _from_integers(a.dim, a.scale, [tuple([-c for c in p]) for p in a.ints])


def translate(a: PointSet, t: Sequence) -> PointSet:
    shift = PointSet.of(a.dim, [t])
    return sumset(a, shift) if a.ints else a


@dataclass(frozen=True, init=False)
class AffineMap:
    """x -> (rows @ x + shift) / scale with an invertible matrix, `scale` the least positive integer
    that makes every entry an integer, so equal maps have equal fields.  `matrix` and `translation`
    are the same map, matrix @ x + translation, with `Fraction` entries."""

    scale: int
    rows: tuple[tuple[int, ...], ...]
    shift: tuple[int, ...]

    def __init__(self, matrix: Sequence[Sequence], translation: Sequence):
        n = len(matrix)
        if n == 0 or any(len(row) != n for row in matrix) or len(translation) != n:
            raise ValueError("affine map needs a square matrix and a matching translation")
        _require_exact(chain(*matrix, translation), "entry")
        scale, (*rows, shift) = _scaled((*matrix, translation))
        if len(greedy_basis(rows)) < n:
            raise ValueError("singular matrix")
        self.__dict__.update(scale=scale, rows=tuple(rows), shift=shift)  # past the frozen __setattr__

    @classmethod
    def of(cls, matrix: Sequence[Sequence], translation: Sequence) -> "AffineMap":
        return cls([coerce_point(row) for row in matrix], coerce_point(translation))

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        return cls.of([unit(dim, i) for i in range(dim)], (0,) * dim)

    @cached_property
    def matrix(self) -> tuple[Point, ...]:
        return tuple(tuple(Fraction(c, self.scale) for c in row) for row in self.rows)

    @cached_property
    def translation(self) -> Point:
        return tuple(Fraction(c, self.scale) for c in self.shift)

    @cached_property
    def inverse(self) -> "AffineMap":
        # with R^-1 = K / D, y = (R x + t') / m solves to x = (m K y - K t') / D
        den, k = invert_matrix(self.rows)
        m, t = self.scale, self.shift
        return _map_from_integers(den, [[m * c for c in row] for row in k], [-sum(map(mul, row, t)) for row in k])

    def to_json(self) -> dict:
        *matrix, translation = _texts(self.scale, (*self.rows, self.shift))
        return {"matrix": matrix, "translation": translation}

    @classmethod
    def from_json(cls, obj: dict) -> "AffineMap":
        matrix, translation = _json_fields(obj, "affine map", "matrix", "translation")
        if not isinstance(matrix, list):
            raise ValueError(f"'matrix' must be a list of rows, got {matrix!r}")
        return cls.of(matrix, translation)


def _map_from_integers(scale: int, rows: Sequence[Sequence[int]], shift: Sequence[int]) -> AffineMap:
    """x -> (rows @ x + shift) / scale over its least scale, trusting that the scale is positive and the integer
    matrix invertible (no rank test); outside maps enter through `AffineMap(...)` and `AffineMap.of`."""
    g = gcd(scale, *chain(*rows, shift))
    *rows, shift = [tuple([x // g for x in row]) for row in (*rows, shift)]
    out = object.__new__(AffineMap)
    out.__dict__.update(scale=scale // g, rows=tuple(rows), shift=shift)
    return out


def apply_affine(a: PointSet, t: AffineMap) -> PointSet:
    """Image of the set; cardinality is preserved because the map is invertible."""
    if len(t.shift) != a.dim:
        raise ValueError("affine map dimension mismatch")
    # with s the set's scale, p = p' / s and the map (R x + t') / m, the image of p over s m is R p' + s t'
    rows, shift = t.rows, [a.scale * c for c in t.shift]
    image = _from_integers(
        a.dim, a.scale * t.scale, (tuple([sum(map(mul, row, p)) + c for row, c in zip(rows, shift)]) for p in a.ints)
    )
    if len(image) != len(a):
        raise RuntimeError(f"affine image postcondition failed: {len(a)} points went to {len(image)}")
    return image
