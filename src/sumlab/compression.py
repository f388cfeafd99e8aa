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

from .incidence import Direction, Hyperplane, line_partition
from .linalg import affine_basis
from .pointset import AffineMap, Point, PointSet, _json_fields, affine_dimension, apply_affine, coerce_point, unit


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
    cardinality is preserved.  Returns (image, point map).
    """
    if not a.points:
        raise ValueError("cannot compress an empty set")
    if len(spec.direction.vec) != a.dim:
        raise ValueError("compression dimension mismatch")
    v = spec.direction.vec
    h = spec.hyperplane
    nv = sum(n * x for n, x in zip(h.normal, v))
    mapping: dict[Point, Point] = {}
    for _, fiber in line_partition(a, spec.direction).classes:
        p0 = fiber.points[0]
        t_star = (h.offset - h.value(p0)) / nv
        u = tuple(c + t_star * x for c, x in zip(p0, v))
        for j, p in enumerate(fiber.points):
            mapping[p] = tuple(c + j * x for c, x in zip(u, v))
    image = PointSet.of(a.dim, mapping.values())
    if len(image) != len(a):
        raise RuntimeError(f"compression postcondition failed: {len(a)} points went to {len(image)}")
    return image, mapping


def compress_pair(a: PointSet, b: PointSet, spec: CompressionSpec) -> tuple[PointSet, PointSet]:
    """Apply one compression to both operands (sumset size can only shrink)."""
    return compress(a, spec)[0], compress(b, spec)[0]


@dataclass(frozen=True)
class TraceStep:
    spec: CompressionSpec
    mapping: tuple[tuple[Point, Point], ...]

    def __post_init__(self):
        if not len(self.mapping) == len({p for p, _ in self.mapping}) == len({q for _, q in self.mapping}):
            raise ValueError("a trace step must map distinct points to distinct images, or replay shrinks the set")

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
        want = None if self.initial_affine is None else len(self.initial_affine.matrix)
        for i, step in enumerate(self.steps):
            dim = len(step.spec.direction.vec)
            if want is None:
                want = dim
            elif dim != want:
                raise ValueError(f"trace step {i} has dimension {dim}, but the trace has dimension {want}")

    def apply_specs(self, x: PointSet) -> PointSet:
        if self.initial_affine is not None and x.points:
            x = apply_affine(x, self.initial_affine)
        for step in self.steps:
            if not x.points:
                break
            x = compress(x, step.spec)[0]
        return x

    def replay(self, x: PointSet) -> PointSet:
        if self.initial_affine is not None and x.points:
            x = apply_affine(x, self.initial_affine)
        for step in self.steps:
            lookup = dict(step.mapping)
            try:
                x = PointSet.of(x.dim, (lookup[p] for p in x.points))
            except KeyError as exc:
                raise ValueError("replay input does not match the recorded domain") from exc
        return x

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
            steps.append(TraceStep(spec, mapping))
        return cls(tuple(steps), None if affine is None else AffineMap.from_json(affine))


def _axis_spec(dim: int, axis: int) -> CompressionSpec:
    normal = unit(dim, axis)
    return CompressionSpec(Hyperplane.of(normal, 0), Direction.of(normal))


def _assert_downclosed(a: PointSet) -> None:
    members = set(a.points)
    for p in a.points:
        for i, c in enumerate(p):
            if c.denominator != 1 or c < 0:
                raise RuntimeError(f"expected nonnegative integer coordinates, got {p}")
            if c > 0:
                below = p[:i] + (c - 1,) + p[i + 1 :]
                if below not in members:
                    raise RuntimeError(f"set is not down-closed at {p}, axis {i}")


def _normalizing_map(a: PointSet, l: Direction) -> AffineMap:
    """Affine map sending l to the last axis and a chosen simplex of A onto
    {0, e_1, ..., e_d}: two points of a common fiber go to 0 and e_d, then a
    greedy rank extension in lexicographic order fills e_1 .. e_{d-1}."""
    d = a.dim
    part = line_partition(a, l)
    rich = [cls for _, cls in part.classes if len(cls) >= 2]
    fiber = min(rich, key=lambda c: c.points[0])
    p0, q = fiber.points[:2]
    along, *rest = affine_basis((p0, q, *a.points))
    columns = [*rest, along]
    mat = tuple(tuple(col[i] for col in columns) for i in range(d))
    return AffineMap(mat, p0).inverse


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
    s = line_partition(a, l).count
    if s == len(a):
        raise ValueError("every line parallel to l meets the set in a single point")
    if d == 2 and s > 2:
        raise ValueError(
            "in the plane the slab-plus-point target forces exactly two lines; "
            f"got {s} lines parallel to l"
        )

    transform = _normalizing_map(a, l)
    x = apply_affine(a, transform)
    y = apply_affine(b, transform) if b.points else b
    steps: list[TraceStep] = []

    def run(spec: CompressionSpec) -> None:
        nonlocal x, y
        x, mapping = compress(x, spec)
        steps.append(TraceStep(spec, tuple(sorted(mapping.items()))))
        if y.points:
            y = compress(y, spec)[0]

    run(_axis_spec(d, d - 1))
    for axis in range(d - 2, -1, -1):
        run(_axis_spec(d, axis))

    _assert_downclosed(x)
    missing = [p for p in [(0,) * d] + [unit(d, i) for i in range(d)] if p not in x]
    if missing:
        raise RuntimeError(f"axis compressions lost the unit simplex points {missing}")

    slab_plane = Hyperplane.of(unit(d, 0), 0)
    while True:
        slab_count = 1 + max(p[0] for p in x.points)
        if slab_count < 2:
            raise RuntimeError("the set lies in one slab along the first axis")
        anchors = [p for p in x.points if p[0] == 0 and p[-1] == 0]
        w = max(anchors, key=lambda p: (sum(p[1:-1]), p))
        f = tuple(1 if i == 0 else -w[i] for i in range(d))
        run(CompressionSpec(slab_plane, Direction.of(f)))
        if slab_count == 2:
            break
        new_count = 1 + max(p[0] for p in x.points)
        if new_count >= slab_count:
            raise RuntimeError(f"slab count must strictly decrease, went {slab_count} to {new_count}")

    axis_heights = [p[-1] for p in x.points if all(c == 0 for c in p[:-1]) and p[-1] >= 1]
    run_top = max(axis_heights)
    g = tuple(1 if i == 0 else (-run_top if i == d - 1 else 0) for i in range(d))
    run(CompressionSpec(slab_plane, Direction.of(g)))

    _assert_reduced(x, s, d)
    return x, y, CompressionTrace(tuple(steps), transform)


def _assert_reduced(x: PointSet, s: int, d: int) -> None:
    """Raise unless x has s lines along e_d, spans Q^d and meets {x_1 != 0} only in e_1."""
    part = line_partition(x, Direction.of(unit(d, d - 1)))
    dim = affine_dimension(x)
    off_slab = [cls.points for key, cls in part.classes if key[0] != 0]
    if part.count != s or dim != d or off_slab != [(unit(d, 0),)]:
        raise RuntimeError(
            f"reduction postcondition failed: {part.count} lines (want {s}), "
            f"affine dimension {dim} (want {d}), off-slab lines {off_slab}"
        )
