"""Fiber compressions onto a hyperplane and the slab-plus-point reduction.

A compression slides every fiber of a set parallel to a direction into a
contiguous run anchored where the fiber meets the hyperplane.  Cardinality is
always preserved and sumsets never grow, which makes chains of compressions a
certificate-producing normalization: `reduce` drives a full-dimensional set
down to "all lines but one inside a single hyperplane, the last line a single
point" while recording every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .incidence import Direction, Hyperplane, _dot, _group, _shadow, _shadow_keys, line_partition
from .linalg import affine_basis
from .pointset import (
    AffineMap, Point, PointSet, _from_integers, _json_fields, _map_from_integers, affine_dimension, apply_affine,
    coerce_point, sumset_count, unit,
)


@dataclass(frozen=True)
class CompressionSpec:
    """Target hyperplane plus a slide direction not parallel to it."""

    hyperplane: Hyperplane
    direction: Direction

    def __post_init__(self):
        if len(self.hyperplane.normal) != len(self.direction.vec):
            raise ValueError("hyperplane and direction dimensions differ")
        if sum(n * v for n, v in zip(self.hyperplane.normal, self.direction.vec)) == 0:
            raise ValueError("compression direction is parallel to the hyperplane")

    def to_json(self) -> dict:
        return {"hyperplane": self.hyperplane.to_json(), "direction": self.direction.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "CompressionSpec":
        hyperplane, direction = _json_fields(obj, "compression step", "hyperplane", "direction")
        return cls(Hyperplane.from_json(hyperplane), Direction.from_json(direction))


def compress(a: PointSet, spec: CompressionSpec) -> tuple[PointSet, dict[Point, Point]]:
    """Slide each fiber parallel to the direction into a run u, u+v, u+2v, ...

    u is the fiber's intersection with the hyperplane; points keep their order
    along the direction, so the result is a pointwise bijection and
    cardinality is preserved.  Returns (image, point map), the map in the order of a's points.
    """
    image, moved = _slide(a, spec)
    # the images are distinct, so sorting them lines them up with the image's points
    as_fractions = dict(zip(sorted(moved), image.points))
    return image, {p: as_fractions[m] for p, m in zip(a.points, moved)}


def _slide(a: PointSet, spec: CompressionSpec) -> tuple[PointSet, list[tuple[int, ...]]]:
    """(image, moved) of `compress`, moved[i] the image of a.ints[i] over a multiple of its scale.

    With the points p' / s, the offset c = c' / q and k = |n.v|, the anchor of
    the fiber starting at p is u = p + (c - n.p) / (n.v) v, and over the scale
    s q k it is the integer point q k p' + sign(n.v) (s c' - q n.p') v.
    """
    if len(spec.direction.vec) != a.dim:
        raise ValueError("compression dimension mismatch")
    v = spec.direction.vec
    normal, offset = spec.hyperplane.normal, spec.hyperplane.offset
    nv = _dot(normal, v)
    s, pts = a.scale, a.ints
    q, k = offset.denominator, abs(nv)
    step = [s * q * k * x for x in v]
    moved: list = [None] * len(pts)
    # the indices of the points on each line parallel to v, in the points' order
    for fiber in _group(range(len(pts)), _shadow_keys(pts, v)).values():
        p0 = pts[fiber[0]]
        t = (s * offset.numerator - q * _dot(normal, p0)) * (1 if nv > 0 else -1)
        u = [q * k * c + t * x for c, x in zip(p0, v)]
        for j, i in enumerate(fiber):
            moved[i] = tuple([c + j * x for c, x in zip(u, step)])
    image = _from_integers(a.dim, s * q * k, moved)
    if len(image) != len(a):
        raise RuntimeError(f"compression postcondition failed: {len(a)} points went to {len(image)}")
    return image, moved


def compress_pair(a: PointSet, b: PointSet, spec: CompressionSpec) -> tuple[PointSet, PointSet]:
    """Apply one compression to both operands (sumset size can only shrink)."""
    return _slide(a, spec)[0], _slide(b, spec)[0]


@dataclass(frozen=True)
class TraceStep:
    """One compression and its point map, a bijection of Fraction points: `compress` builds one and
    `from_json` checks one, while `replay` refuses a hand-built step that merges points."""

    spec: CompressionSpec
    mapping: tuple[tuple[Point, Point], ...]

    def to_json(self) -> dict:
        out = self.spec.to_json()
        out["map"] = [
            [[str(c) for c in pre], [str(c) for c in post]] for pre, post in self.mapping
        ]
        return out


@dataclass(frozen=True)
class CompressionTrace:
    """Ordered record of an applied compression chain.

    `steps` carry the per-point maps for the first operand; `apply_specs`
    re-runs the same chain on any other set, `replay` re-applies the recorded
    maps and therefore only accepts the recorded input.
    """

    steps: tuple[TraceStep, ...]
    initial_affine: AffineMap | None = None

    def __post_init__(self):
        want = None if self.initial_affine is None else len(self.initial_affine.rows)
        for i, step in enumerate(self.steps):
            dim = len(step.spec.direction.vec)
            if want is None:
                want = dim
            elif dim != want:
                raise ValueError(f"trace step {i} has dimension {dim}, but the trace has dimension {want}")

    def apply_specs(self, x: PointSet) -> PointSet:
        if self.initial_affine is not None:
            x = apply_affine(x, self.initial_affine)
        for step in self.steps:
            x = _slide(x, step.spec)[0]
        return x

    def replay(self, x: PointSet) -> PointSet:
        if self.initial_affine is not None:
            x = apply_affine(x, self.initial_affine)
        pts = x.points
        for step in self.steps:
            lookup = dict(step.mapping)
            try:
                pts = [lookup[p] for p in pts]
            except KeyError as exc:
                raise ValueError("replay input does not match the recorded domain") from exc
        # `of` merges repeated images, so a hand-built step that maps two points to one shows as a shorter set
        out = PointSet.of(x.dim, pts)
        if len(out) < len(x):
            raise ValueError(f"replay maps {len(x)} points to {len(out)}: a trace step merges points")
        return out

    def to_json(self) -> dict:
        return {
            "initial_affine": None if self.initial_affine is None else self.initial_affine.to_json(),
            "steps": [s.to_json() for s in self.steps],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CompressionTrace":
        (raw_steps,) = _json_fields(obj, "trace", "steps")
        if not isinstance(raw_steps, list):
            raise ValueError(f"'steps' must be a list of steps, got {raw_steps!r}")
        affine = obj.get("initial_affine")
        steps = []
        for raw in raw_steps:
            spec = CompressionSpec.from_json(raw)
            dim = len(spec.direction.vec)
            (pairs,) = _json_fields(raw, "compression step", "map")
            if not isinstance(pairs, list) or not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
                raise ValueError(f"'map' must be a list of [point, image] pairs, got {pairs!r}")
            mapping = tuple((coerce_point(pre, dim), coerce_point(post, dim)) for pre, post in pairs)
            if not len(mapping) == len({p for p, _ in mapping}) == len({q for _, q in mapping}):
                raise ValueError("a trace step must map distinct points to distinct images, or replay shrinks the set")
            steps.append(TraceStep(spec, mapping))
        return cls(tuple(steps), None if affine is None else AffineMap.from_json(affine))


def _axis_spec(dim: int, axis: int) -> CompressionSpec:
    # e_axis is already a primitive normal and direction with positive leading entry
    normal = unit(dim, axis)
    return CompressionSpec(Hyperplane(normal, Fraction(0)), Direction(normal))


def _assert_downclosed(a: PointSet) -> None:
    # at the set's scale s, a coordinate c is an integer when s divides it, and c - s is one below it
    for p, q in zip(a.points, a.ints):
        for i, c in enumerate(q):
            if c % a.scale or c < 0:
                raise RuntimeError(f"expected nonnegative integer coordinates, got {p}")
            if c > 0 and q[:i] + (c - a.scale,) + q[i + 1 :] not in a._members:
                raise RuntimeError(f"set is not down-closed at {p}, axis {i}")


def _normalizing_map(a: PointSet, fibers: list[list[int]]) -> AffineMap:
    """Affine map sending the fibers' direction to the last axis and a chosen simplex of A
    onto {0, e_1, ..., e_d}: two points of a common fiber go to 0 and e_d, then a
    greedy rank extension in lexicographic order fills e_1 .. e_{d-1}.

    Each fiber lists the indices of A's points on one line, in the points' order.
    The fiber is the one with the smallest first point, and the rank extension runs on
    the set's integer points (the points times s, its scale, with the same vectors), so the
    map is the inverse of x -> (C x + q) / s, q the integer point sent to 0, C's columns the vectors."""
    pts = a.ints
    i0, i1 = min(fiber[:2] for fiber in fibers if len(fiber) >= 2)
    along, *rest = affine_basis((pts[i0], pts[i1], *pts))
    return _map_from_integers(a.scale, list(zip(*rest, along)), pts[i0]).inverse


def reduce(a: PointSet, b: PointSet, l: Direction) -> tuple[PointSet, PointSet, CompressionTrace]:
    """Compress A (mirroring every step on B) into slab-plus-point form.

    Works in a normalized frame: an initial affine map sends the line
    direction to the last coordinate axis e_d and places an affinely
    independent simplex of A on {0, e_1, ..., e_d}.  Axis compressions make
    the set a down-closed subset of the nonnegative integer lattice; a loop of
    slanted compressions (directions e_1 - w for w a maximal lattice point
    with first and last coordinate zero) then thins the slab count along the
    first axis to two, and a final compression with direction e_1 - r*e_d
    empties the off-hyperplane slab except for the single point e_1.

    The result: the same number s of lines parallel to e_d meet the output,
    s - 1 of them inside the hyperplane {x_1 = 0}, the remaining one meeting
    it only in e_1; cardinalities are unchanged and |A'+B'| <= |A+B|.
    Returns (A', B', trace); the returned sets live in the normalized frame
    and the trace records the initial affine map.
    """
    d = a.dim
    if d < 2:
        raise ValueError("reduction needs ambient dimension at least 2")
    if b.dim != d:
        raise ValueError("operand dimension mismatch")
    if affine_dimension(a) != d:
        raise ValueError("set must span the ambient space")
    fibers = list(_group(range(len(a)), _shadow(a, l.vec)[1]).values())
    s = len(fibers)
    if s == len(a):
        raise ValueError("every line parallel to l meets the set in a single point")
    if d == 2 and s > 2:
        raise ValueError(
            "in the plane the slab-plus-point target forces exactly two lines; "
            f"got {s} lines parallel to l"
        )

    transform = _normalizing_map(a, fibers)
    x = apply_affine(a, transform)
    y = apply_affine(b, transform)
    steps: list[TraceStep] = []

    def run(spec: CompressionSpec) -> None:
        nonlocal x, y
        x, mapping = compress(x, spec)
        steps.append(TraceStep(spec, tuple(mapping.items())))
        y = _slide(y, spec)[0]

    run(_axis_spec(d, d - 1))
    for axis in range(d - 2, -1, -1):
        run(_axis_spec(d, axis))

    # down-closed nonnegative integer points have scale 1, which each slanted step below keeps (its
    # canonical direction has first entry 1, so |n.v| = 1): from here on x.ints are x's points
    _assert_downclosed(x)
    missing = [p for p in [(0,) * d] + [unit(d, i) for i in range(d)] if p not in x._members]
    if missing:
        raise RuntimeError(f"axis compressions lost the unit simplex points {missing}")

    # the points are in lexicographic order, so the last one has the largest first coordinate
    slab_plane = _axis_spec(d, 0).hyperplane
    while True:
        slab_count = 1 + x.ints[-1][0]
        if slab_count < 2:
            raise RuntimeError("the set lies in one slab along the first axis")
        anchors = [p for p in x.ints if p[0] == 0 and p[-1] == 0]
        w = max(anchors, key=lambda p: (sum(p[1:-1]), p))
        f = tuple(1 if i == 0 else -w[i] for i in range(d))
        run(CompressionSpec(slab_plane, Direction(f)))
        if slab_count == 2:
            break
        new_count = 1 + x.ints[-1][0]
        if new_count >= slab_count:
            raise RuntimeError(f"slab count must strictly decrease, went {slab_count} to {new_count}")

    run_top = max(p[-1] for p in x.ints if all(c == 0 for c in p[:-1]) and p[-1] >= 1)
    g = tuple(1 if i == 0 else (-run_top if i == d - 1 else 0) for i in range(d))
    run(CompressionSpec(slab_plane, Direction(g)))

    if problems := _form_problems(x, s):
        raise RuntimeError(f"reduction postcondition failed: {'; '.join(problems)}")
    return x, y, CompressionTrace(tuple(steps), transform)


def _form_problems(x: PointSet, s: int) -> list[str]:
    """The ways x fails the slab-plus-point form: s lines along e_d (two points share one
    exactly when they agree off the last axis), affine dimension d and {x_1 != 0} = {e_1}.
    The texts are built only for a failure."""
    d = x.dim
    lines = len({p[:-1] for p in x.ints})
    dim = affine_dimension(x)
    off_slab = [p for p in x.points if p[0] != 0]
    problems = []
    if lines != s:
        problems.append(f"line count {lines} != {s}")
    if dim != d:
        problems.append(f"affine dimension {dim} != {d}")
    if off_slab != [unit(d, 0)]:
        problems.append(f"off-slab points {[[str(c) for c in p] for p in off_slab]} != [e_1]")
    return problems


def reduce_properties_hold(a: PointSet, b: PointSet, l: Direction) -> list[str]:
    """Run `reduce` and list the postconditions its result fails: cardinality, sumset
    monotonicity, the slab-plus-point form (s taken from A's lines along l), `replay` and
    `apply_specs`."""
    s = line_partition(a, l).count
    a2, b2, trace = reduce(a, b, l)
    problems = []
    if len(a2) != len(a) or len(b2) != len(b):
        problems.append("cardinality")
    if sumset_count(a2, b2) > sumset_count(a, b):
        problems.append("sumset grew")
    problems += _form_problems(a2, s)
    if trace.replay(a) != a2:
        problems.append("trace replay mismatch")
    if trace.apply_specs(b) != b2:
        problems.append("trace spec application mismatch")
    return problems
