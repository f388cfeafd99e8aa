import itertools
import random
import re
from fractions import Fraction
from math import gcd

import pytest

from sumlab import (
    CompressionSpec,
    CompressionTrace,
    Direction,
    Hyperplane,
    PointSet,
    affine_dimension,
    compress,
    compress_pair,
    difference_set,
    line_partition,
    reduce,
    sumset,
)
from sumlab.incidence import project_along
from sumlab.compression import TraceStep, reduce_properties_hold
from sumlab.pointset import parse_rational
from sumlab.verify import random_compression_instance, random_reduce_instance
from conftest import oracle_pair_sum_count, pset

H_Y0 = Hyperplane.of((0, 1), 0)
E2 = Direction.of((0, 1))


def test_spec_rejects_parallel_direction():
    with pytest.raises(ValueError):
        CompressionSpec(H_Y0, Direction.of((1, 0)))


def test_compress_columns():
    a = pset(2, [(0, 0), (0, 2), (1, 5)])
    image, mapping = compress(a, CompressionSpec(H_Y0, E2))
    assert image == pset(2, [(0, 0), (0, 1), (1, 0)])
    assert mapping[(0, 2)] == (0, 1)
    assert mapping[(1, 5)] == (1, 0)


def test_compress_fixed_point():
    a = pset(2, [(0, 0), (0, 1), (0, 2), (3, 0)])
    image, mapping = compress(a, CompressionSpec(H_Y0, E2))
    assert image == a
    assert all(pre == post for pre, post in mapping.items())


def test_compress_slanted_direction():
    square = pset(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    spec = CompressionSpec(Hyperplane.of((1, 0), 0), Direction.of((1, -1)))
    image, _ = compress(square, spec)
    assert image == pset(2, [(0, 0), (0, 1), (1, 0), (0, 2)])


def test_compress_preserves_cardinality_and_shadow():
    rng = random.Random(21)
    for _ in range(200):
        d = rng.choice((2, 3))
        a, _, spec = random_compression_instance(rng, d)
        image, mapping = compress(a, spec)
        assert len(image) == len(a)
        assert len(mapping) == len(a)
        assert {project_along(p, spec.direction) for p in a.points} == {
            project_along(p, spec.direction) for p in image.points
        }


def test_compress_pair_singleton_translation():
    rng = random.Random(22)
    for _ in range(20):
        a, _, spec = random_compression_instance(rng, 2)
        b = pset(2, [(rng.randint(0, 4), rng.randint(0, 4))])
        pa, pb = compress_pair(a, b, spec)
        assert len(sumset(pa, pb)) == len(a) == len(sumset(a, b))


def test_compress_pair_hand_example():
    a = pset(2, [(0, 0), (1, 1)])
    pa, pb = compress_pair(a, a, CompressionSpec(H_Y0, E2))
    assert pa == pb == pset(2, [(0, 0), (1, 0)])
    assert len(sumset(pa, pb)) == 3 <= 3 == oracle_pair_sum_count(a.points, a.points)


def test_compress_monotonicity_randomized():
    rng = random.Random(23)
    for _ in range(300):
        d = rng.choice((2, 3))
        a, b, spec = random_compression_instance(rng, d)
        pa, pb = compress_pair(a, b, spec)
        assert len(sumset(pa, pb)) <= len(sumset(a, b))


def test_compress_takes_empty_to_empty():
    empty, spec = PointSet.of(2, []), CompressionSpec(H_Y0, E2)
    assert compress(empty, spec) == (empty, {})
    assert compress_pair(pset(2, [(0, 3), (1, 1)]), empty, spec) == (pset(2, [(0, 0), (1, 0)]), empty)
    assert CompressionTrace((TraceStep(spec, empty),)).apply_specs(empty) == empty


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: CompressionSpec(H_Y0, Direction.of((0, 0, 1))), "hyperplane and direction dimensions differ",
            id="spec-dims",
        ),
        pytest.param(
            lambda: compress(pset(3, [(0, 0, 0)]), CompressionSpec(H_Y0, E2)), "compression dimension mismatch",
            id="compress-dim",
        ),
        pytest.param(
            lambda: compress(PointSet.of(3, []), CompressionSpec(H_Y0, E2)), "compression dimension mismatch",
            id="compress-empty-dim",
        ),
        pytest.param(
            lambda: reduce(pset(1, [(0,), (1,)]), pset(1, [(0,)]), Direction.of((1,))),
            "reduction needs ambient dimension at least 2",
            id="reduce-d1",
        ),
        pytest.param(
            lambda: reduce(pset(2, [(0, 0), (0, 1), (1, 0)]), pset(3, [(0, 0, 0)]), E2),
            "operand dimension mismatch",
            id="reduce-b-dim",
        ),
    ],
)
def test_compression_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_reduce_square_example():
    square = pset(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    a2, b2, trace = reduce(square, pset(2, [(0, 0)]), E2)
    assert a2 == pset(2, [(0, 0), (0, 1), (0, 2), (1, 0)])
    assert len(b2) == 1
    assert trace.initial_affine is not None


def test_reduce_already_reduced_shape():
    a = pset(2, [(0, 0), (0, 1), (0, 2), (1, 0)])
    a2, _, _ = reduce(a, pset(2, [(0, 0)]), E2)
    assert a2 == a
    part = line_partition(a2, E2)
    assert part.count == 2


def test_reduce_properties_randomized():
    rng = random.Random(24)
    for i in range(120):
        d = 2 if i % 2 == 0 else 3
        a, b, l = random_reduce_instance(rng, d)
        assert reduce_properties_hold(a, b, l) == []


def test_reduce_inverts_exactly_one_matrix(monkeypatch):
    # AffineMap tests invertibility by rank and inverts only in .inverse, which reduce asks for once
    import sumlab.pointset

    real = sumlab.pointset.invert_matrix
    calls = []
    monkeypatch.setattr(sumlab.pointset, "invert_matrix", lambda mat: calls.append(mat) or real(mat))
    a = pset(3, [(0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 2), (2, 1, 1)])
    a2, _, trace = reduce(a, pset(3, [(0, 0, 0), (1, 2, 3)]), Direction.of((0, 0, 1)))
    assert len(calls) == 1
    assert len(a2) == len(a)
    assert CompressionTrace.from_json(trace.to_json()) == trace
    assert len(calls) == 1
    assert trace.initial_affine.inverse.inverse == trace.initial_affine


COMB = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 0, 0)]


@pytest.mark.parametrize(
    "points, b_points, vec",
    [
        ([(0, 0), (0, 1), (1, 0), (1, 1)], [(0, 0), (1, 2)], (0, 1)),
        ([("1/3", 0), ("1/3", "1/2"), ("1/3", 1), ("5/6", 0), ("5/6", "1/2")], [("1/2", 0), (0, "2/3")], (0, 1)),
        # four slabs along the first axis of the normalized frame, so the slab loop runs twice
        (COMB, [(0, 0, 0), (1, 2, 3)], (0, 0, 1)),
        # COMB under x -> (2x/3 + 1/2, 2y/3, y - z/3), which keeps lines along e_3
        (
            [(Fraction(2 * x, 3) + Fraction(1, 2), Fraction(2 * y, 3), y - Fraction(z, 3)) for x, y, z in COMB],
            [("1/5", 0, 0), (0, 1, "1/2")],
            (0, 0, 1),
        ),
    ],
    ids=["d2-integer", "d2-rational", "d3-integer", "d3-rational"],
)
def test_reduce_parses_none_of_its_own_values(monkeypatch, points, b_points, vec):
    # outside values are checked once, when the operands and the direction are built
    import sumlab.compression
    import sumlab.incidence
    import sumlab.pointset

    d = len(vec)
    a, b, l = pset(d, points), pset(d, b_points), Direction.of(vec)
    calls = []

    def count(owner, name):
        real = getattr(owner, name)
        label = f"{owner.__name__}.{name}"
        monkeypatch.setattr(owner, name, lambda *args: calls.append(label) or real(*args))

    for module in (sumlab.pointset, sumlab.incidence, sumlab.compression):
        count(module, "coerce_point")
    for module in (sumlab.pointset, sumlab.incidence):
        count(module, "_scaled")
    count(sumlab.pointset.AffineMap, "__init__")
    a2, b2, _ = reduce(a, b, l)
    assert calls == []
    assert (len(a2), len(b2)) == (len(a), len(b))


def test_reduce_rejects_bad_inputs():
    flat = pset(2, [(0, 0), (1, 0), (2, 0)])
    with pytest.raises(ValueError):
        reduce(flat, flat, E2)  # not full-dimensional
    spread = pset(2, [(0, 0), (1, 1), (2, 0)])
    with pytest.raises(ValueError):
        reduce(spread, spread, E2)  # s == |A|: no line holds two points
    three_cols = pset(2, [(0, 0), (1, 0), (2, 0), (0, 1)])
    with pytest.raises(ValueError):
        reduce(three_cols, three_cols, E2)  # s = 3 > 2 impossible in the plane


def test_reduce_empty_b():
    square = pset(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    a2, b2, trace = reduce(square, PointSet.of(2, []), E2)
    assert len(a2) == 4
    assert b2 == PointSet.of(2, [])
    assert trace.apply_specs(b2) == trace.replay(b2) == b2
    # an empty set goes through the trace's affine map too, so its dimension is checked like any other's
    for empty in (PointSet.of(1, []), PointSet.of(3, [])):
        for run in (trace.apply_specs, trace.replay):
            with pytest.raises(ValueError, match="affine map dimension mismatch"):
                run(empty)


def test_reduce_properties_hold_names_each_problem(monkeypatch):
    import sumlab.compression as C

    square = pset(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    b = pset(2, [(0, 0)])
    assert reduce_properties_hold(square, b, E2) == []
    _, _, trace = reduce(square, b, E2)
    # three points on the first axis, and a B with two points whose sums with them outnumber |A + B| = 4
    broken = (pset(2, [(0, 0), (1, 0), (2, 0)]), pset(2, [(0, 0), (5, 5)]), trace)
    monkeypatch.setattr(C, "reduce", lambda a, b, l: broken)
    assert reduce_properties_hold(square, b, E2) == [
        "cardinality",
        "sumset grew",
        "line count 3 != 2",
        "affine dimension 1 != 2",
        "off-slab points [['1', '0'], ['2', '0']] != [e_1]",
        "trace replay mismatch",
        "trace spec application mismatch",
    ]


def test_trace_replay_and_serialization():
    rng = random.Random(25)
    a, b, l = random_reduce_instance(rng, 3)
    a2, b2, trace = reduce(a, b, l)
    assert trace.replay(a) == a2
    assert trace.apply_specs(a) == a2
    assert trace.apply_specs(b) == b2
    with pytest.raises(ValueError):
        trace.replay(pset(3, [(9, 9, 9), (8, 8, 8), (7, 7, 7), (6, 6, 6)]))
    rebuilt = CompressionTrace.from_json(trace.to_json())
    assert rebuilt.replay(a) == a2
    for bad in (" 1.5", "1.5", 1.5):
        blob = trace.to_json()
        blob["steps"][0]["map"][0][1][0] = bad
        with pytest.raises(ValueError):
            CompressionTrace.from_json(blob)
    # every recorded step compresses the image of the step before, and its map is that compression's
    current = a
    if trace.initial_affine is not None:
        from sumlab import apply_affine

        current = apply_affine(a, trace.initial_affine)
    for step in trace.steps:
        image, mapping = compress(current, step.spec)
        assert step.source == current
        assert step.to_json()["map"] == [[[str(c) for c in p] for p in pair] for pair in mapping.items()]
        current = image


def test_trace_from_json_rejects_float_direction_and_hyperplane():
    square = pset(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    _, _, trace = reduce(square, pset(2, [(0, 0)]), E2)
    step = trace.to_json()["steps"][0]
    floats = {
        "vec": [float(x) for x in step["direction"]["vec"]],
        "normal": [float(x) for x in step["hyperplane"]["normal"]],
        "offset": float(Fraction(step["hyperplane"]["offset"])),
    }
    for key, value in floats.items():
        blob = trace.to_json()
        raw = blob["steps"][0]
        (raw["direction"] if key == "vec" else raw["hyperplane"])[key] = value
        with pytest.raises(ValueError, match="float"):
            CompressionTrace.from_json(blob)


@pytest.mark.parametrize(
    "bad",
    ["00", ["0", "0", "0"], ["0\n", "0"], ["\u0660", "0"], ["0", "\uff10/\uff11"]],
    ids=["string", "three-coordinates", "trailing-newline", "arabic-indic-digit", "fullwidth-digits"],
)
def test_trace_from_json_rejects_malformed_map_points(bad):
    # map points follow the point-set JSON rule: a list of coordinates, one per axis
    square = pset(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    _, _, trace = reduce(square, pset(2, [(0, 0)]), E2)
    blob = trace.to_json()
    blob["steps"][0]["map"][0][0] = bad
    with pytest.raises(ValueError):
        CompressionTrace.from_json(blob)


def _corner_trace_json():
    # one column compression of the corner {(0,0), (1,0), (0,1)}, as written by hand
    step = {
        "hyperplane": {"normal": ["0", "1"], "offset": "0"},
        "direction": {"vec": ["0", "1"]},
        "map": [[["0", "0"], ["0", "0"]], [["0", "1"], ["0", "1"]], [["1", "0"], ["1", "0"]]],
    }
    affine = {"matrix": [["1", "0"], ["0", "1"]], "translation": ["0", "0"]}
    return {"initial_affine": affine, "steps": [step]}


TRACE_DEFECTS = {
    "two-points-one-image": lambda t: t["steps"][0]["map"].append([["1", "1"], ["0", "0"]]),
    "repeated-preimage": lambda t: t["steps"][0]["map"].append([["0", "0"], ["1", "1"]]),
    # a bijection of the corner, but not its compression
    "not-the-compression": lambda t: t["steps"][0]["map"][1].__setitem__(1, ["5", "7"]),
    "missing-steps": lambda t: t.pop("steps"),
    "steps-not-a-list": lambda t: t.update(steps=5),
    "missing-hyperplane": lambda t: t["steps"][0].pop("hyperplane"),
    "missing-direction": lambda t: t["steps"][0].pop("direction"),
    "missing-map": lambda t: t["steps"][0].pop("map"),
    "map-not-a-list": lambda t: t["steps"][0].update(map=5),
    "missing-translation": lambda t: t["initial_affine"].pop("translation"),
    "missing-matrix": lambda t: t["initial_affine"].pop("matrix"),
    "missing-normal": lambda t: t["steps"][0]["hyperplane"].pop("normal"),
    "missing-vec": lambda t: t["steps"][0]["direction"].pop("vec"),
}
# bad number text in a map entry: the first coordinate of the image of (1, 0)
NUMBER_DEFECTS = {
    "decimal": "0.5", "newline": "1\n", "plus": "+1", "zero-denominator": "1/0", "float": 1.0, "bool": True,
}
TRACE_DEFECTS.update(
    (f"map-number-{name}", lambda t, value=value: t["steps"][0]["map"][2][1].__setitem__(0, value))
    for name, value in NUMBER_DEFECTS.items()
)


def test_trace_fixture_replays():
    corner = pset(2, [(0, 0), (1, 0), (0, 1)])
    assert CompressionTrace.from_json(_corner_trace_json()).replay(corner) == corner


@pytest.mark.parametrize("defect", sorted(TRACE_DEFECTS))
def test_trace_from_json_rejects_defect(defect):
    # a trace is outside input: every defect is a ValueError (exit 3 at the CLI), never a
    # KeyError or TypeError, and no map may merge points, or replay would shrink the set
    blob = _corner_trace_json()
    TRACE_DEFECTS[defect](blob)
    with pytest.raises(ValueError):
        CompressionTrace.from_json(blob)


def test_repeated_number_text_reads_alike():
    # number text is read through one memoized parser: a good text reads equal every time, a bad
    # one raises every time, and a cached "1" lets no spelling of it with a space through
    first = CompressionTrace.from_json(_corner_trace_json())
    assert CompressionTrace.from_json(_corner_trace_json()) == first
    assert parse_rational("1") == parse_rational("1") == Fraction(1)
    assert parse_rational("-3/6") == parse_rational("-3/6") == Fraction(-1, 2)
    # integer text reads as an int, text with a "/" as a Fraction, even when it is integral
    for text, value in [("3", 3), ("03", 3), ("-0", 0), ("-12", -12), ("4/2", Fraction(2)), ("-1/2", Fraction(-1, 2))]:
        assert parse_rational(text) == value and type(parse_rational(text)) is type(value)
    for text in ["1 ", " 1", "1/0", "0.5"]:
        for _ in range(2):
            with pytest.raises(ValueError):
                parse_rational(text)
            blob = _corner_trace_json()
            blob["steps"][0]["map"][2][1][0] = text
            with pytest.raises(ValueError):
                CompressionTrace.from_json(blob)


def _respelled(obj, turn):
    """obj with each number text written anew as the same number out of lowest terms ("2/4"), with
    a leading zero ("03", "01/2") or with a zero sign or denominator ("-0", "1/02"), in turn."""
    if isinstance(obj, dict):
        return {key: _respelled(value, turn) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_respelled(x, turn) for x in obj]
    if not isinstance(obj, str):
        return obj
    n, m = Fraction(obj).as_integer_ratio()
    sign, n = "-" if n < 0 else "", abs(n)
    spellings = (f"{sign}{2 * n}/{2 * m}", f"{sign}0{n}" + (f"/{m}" if m > 1 else ""), f"{sign}{n}/0{m}" if n else "-0")
    return spellings[next(turn) % 3]


def _number_texts(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [text for x in obj for text in _number_texts(x)]
    return [obj] if isinstance(obj, str) else []


@pytest.mark.parametrize("which", ["reduce-3d", "rational-step"])
def test_trace_text_out_of_lowest_terms_reads_alike(which):
    # "2/4", "03" and "-0" are 1/2, 3 and 0: a trace whose map points, specs and affine map are
    # written so reads as the trace written in lowest terms, writes that text back, and replays
    if which == "reduce-3d":
        a, b, l = random_reduce_instance(random.Random(25), 3)
        want, _, trace = reduce(a, b, l)
    else:
        a = pset(2, [(Fraction(1, 2), 0), (Fraction(1, 2), Fraction(3, 2)), (-1, Fraction(2, 3)), (0, -2)])
        spec = CompressionSpec(Hyperplane.of((2, 1), Fraction(-5, 6)), Direction.of((1, 1)))
        trace = CompressionTrace((TraceStep(spec, a),))
        want = compress(a, spec)[0]
    blob = trace.to_json()
    respelled = _respelled(blob, itertools.count())
    pairs = list(zip(_number_texts(blob), _number_texts(respelled)))
    assert all(old != new and Fraction(old) == Fraction(new) for old, new in pairs)
    news = [new for _, new in pairs]
    assert "-0" in news and any(re.match("-?0[0-9]", new) for new in news)
    assert any("/" in new and gcd(*map(int, new.lstrip("-").split("/"))) > 1 for new in news)
    back = CompressionTrace.from_json(respelled)
    assert back == CompressionTrace.from_json(blob) == trace
    assert back.to_json() == blob
    assert back.replay(a) == want


def test_trace_step_rejects_points_of_another_dimension():
    # replay trusts a step's images to be points of its dimension
    blob = _corner_trace_json()
    blob["steps"][0]["map"][0][1] = ["0", "0", "0"]
    with pytest.raises(ValueError, match="point of length 3 in ambient dimension 2"):
        CompressionTrace.from_json(blob)


def _step_json(d):
    # the identity compression along the last axis of Q^d, on the origin alone
    zero, last = ["0"] * d, ["0"] * (d - 1) + ["1"]
    return {"hyperplane": {"normal": last, "offset": "0"}, "direction": {"vec": last}, "map": [[zero, zero]]}


@pytest.mark.parametrize(
    "affine, bad_step",
    [({"matrix": [["1"]], "translation": ["0"]}, 0), (None, 1)],
    ids=["affine-1-steps-2-3", "steps-2-3"],
)
def test_trace_from_json_rejects_mixed_dimensions(affine, bad_step):
    # replay would fail later with a message that names neither the step nor the mismatch
    blob = {"initial_affine": affine, "steps": [_step_json(2), _step_json(3)]}
    with pytest.raises(ValueError, match=f"trace step {bad_step} has dimension"):
        CompressionTrace.from_json(blob)


def test_reduce_traces_round_trip():
    rng = random.Random(26)
    for i in range(30):
        a, b, l = random_reduce_instance(rng, 2 + i % 2)
        a2, _, trace = reduce(a, b, l)
        rebuilt = CompressionTrace.from_json(trace.to_json())
        assert rebuilt == trace
        assert rebuilt.replay(a) == a2


def test_reduce_monotone_sumset():
    rng = random.Random(26)
    for i in range(60):
        d = 2 if i % 2 == 0 else 3
        a, b, l = random_reduce_instance(rng, d)
        a2, b2, _ = reduce(a, b, l)
        assert len(sumset(a2, b2)) <= len(sumset(a, b))


def test_reduce_difference_via_negated_operand():
    # |A - A| control flows through the pair (A, -A): the mirrored steps give
    # |A' + B'| <= |A + (-A)| = |A - A|
    from sumlab import negate

    rng = random.Random(27)
    for i in range(40):
        d = 2 if i % 2 == 0 else 3
        a, _, l = random_reduce_instance(rng, d)
        a2, b2, _ = reduce(a, negate(a), l)
        assert len(sumset(a2, b2)) <= len(difference_set(a, a))
