import random
import re
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumlab import (
    AffineMap,
    Direction,
    PointSet,
    affine_dimension,
    apply_affine,
    difference_set,
    min_line_cover,
    negate,
    sumset,
    translate,
)
from sumlab.pointset import difference_count, sumset_count
from conftest import FractionSubclass, IntSubclass, oracle_diff_count, oracle_pair_sum_count, pset


def test_sumset_intervals():
    a = pset(1, [(0,), (1,), (2,)])
    b = pset(1, [(0,), (1,)])
    out = sumset(a, b)
    assert [p[0] for p in out.points] == [0, 1, 2, 3]


def test_sumset_triangle():
    tri = pset(2, [(0, 0), (1, 0), (0, 1)])
    out = sumset(tri, tri)
    assert set(out.points) == {
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2),
    }


def test_sumset_thirteen_point_example():
    # three rows of four in the plane x3 = 0, plus e3
    pts = [(i, j, 0) for i in range(4) for j in range(3)] + [(0, 0, 1)]
    a = pset(3, pts)
    assert oracle_pair_sum_count(pts, pts) == 48
    assert len(sumset(a, a)) == 48


def test_difference_ap():
    a = pset(1, [(0,), (1,), (2,)])
    out = difference_set(a, a)
    assert [p[0] for p in out.points] == [-2, -1, 0, 1, 2]


def test_difference_triangle():
    tri = pset(2, [(0, 0), (1, 0), (0, 1)])
    assert len(difference_set(tri, tri)) == 7 == oracle_diff_count(tri.points)


def test_dim_errors_and_empty_operands():
    a = pset(1, [(0,)])
    b = pset(2, [(0, 0)])
    with pytest.raises(ValueError):
        sumset(a, b)
    empty = PointSet.of(2, [])
    assert len(empty) == 0
    with pytest.raises(ValueError):
        difference_set(b, empty)
    with pytest.raises(ValueError):
        affine_dimension(empty)


def test_affine_dimension():
    assert affine_dimension(pset(2, [(5, 7)])) == 0
    assert affine_dimension(pset(2, [(0, 0), (1, 0), (0, 1)])) == 2
    assert affine_dimension(pset(3, [(0, 0, 0), (1, 1, 1), (2, 2, 2)])) == 1


def test_apply_affine_identity_and_swap():
    a = pset(2, [(0, 0), (0, 1)])
    assert apply_affine(a, AffineMap.identity(2)) == a
    swap = AffineMap.of([[0, 1], [1, 0]], [0, 0])
    assert apply_affine(a, swap) == pset(2, [(0, 0), (1, 0)])


def test_affine_map_rejects_singular():
    with pytest.raises(ValueError):
        AffineMap.of([[1, 1], [2, 2]], [0, 0])


def test_negate_translate():
    a = pset(1, [(1,), (2,)])
    assert negate(a) == pset(1, [(-1,), (-2,)])
    assert translate(pset(1, [(0,)]), (1,)) == pset(1, [(1,)])
    assert negate(negate(a)) == a


def test_difference_is_sum_with_negation():
    rng = random.Random(11)
    for _ in range(25):
        d = rng.choice((1, 2, 3))
        a = pset(d, {tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 8))})
        b = pset(d, {tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 8))})
        assert difference_set(a, b) == sumset(a, negate(b))


def test_symmetric_difference_invariants():
    rng = random.Random(5)
    for _ in range(25):
        d = rng.choice((1, 2, 3))
        a = pset(d, {tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(1, 9))})
        diff = difference_set(a, a)
        assert len(diff) % 2 == 1
        assert (0,) * d in diff
        assert negate(diff) == diff


def test_sumset_size_bounds():
    rng = random.Random(6)
    for _ in range(25):
        d = rng.choice((1, 2))
        a = pset(d, {tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(1, 7))})
        b = pset(d, {tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(1, 7))})
        total = len(sumset(a, b))
        assert max(len(a), len(b)) <= total <= len(a) * len(b)


def test_affine_invariance_of_dimension():
    rng = random.Random(8)
    maps = [
        AffineMap.of([[2, 1], [1, 1]], [3, -2]),
        AffineMap.of([[Fraction(1, 2), 0], [5, 1]], [0, Fraction(7, 3)]),
    ]
    for _ in range(20):
        a = pset(2, {tuple(rng.randint(0, 5) for _ in range(2)) for _ in range(rng.randint(1, 8))})
        for t in maps:
            image = apply_affine(a, t)
            assert len(image) == len(a)
            assert affine_dimension(image) == affine_dimension(a)


def test_scaling_commutes_exactly():
    rng = random.Random(9)
    for _ in range(15):
        pts_a = {tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)) for _ in range(5)}
        pts_b = {tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)) for _ in range(4)}
        a, b = pset(2, pts_a), pset(2, pts_b)
        scale = rng.randint(2, 7)
        scaled = sumset(
            pset(2, [tuple(scale * c for c in p) for p in a.points]),
            pset(2, [tuple(scale * c for c in p) for p in b.points]),
        )
        expected = pset(2, [tuple(scale * c for c in p) for p in sumset(a, b).points])
        assert scaled == expected


def test_json_roundtrip_and_format():
    a = PointSet.of(2, [(0, 0), (Fraction(1, 2), 3)])
    blob = a.to_json()
    assert blob == {"dim": 2, "points": [["0", "0"], ["1/2", "3"]]}
    assert PointSet.from_json(blob) == a


def test_json_rejects_duplicates_and_floats():
    with pytest.raises(ValueError):
        PointSet.from_json({"dim": 1, "points": [["1"], ["2/2"]]})
    with pytest.raises(ValueError):
        PointSet.from_json({"dim": 1, "points": [["0.5"]]})
    with pytest.raises(ValueError):
        PointSet.from_json({"dim": 1, "points": [["1/0"]]})


@pytest.mark.parametrize(
    "blob, message",
    [
        ({"dim": 2, "points": ["12"]}, "must be a list or tuple"),
        ({"dim": 1, "points": [5]}, "must be a list or tuple"),
        ({"dim": 2, "points": [[True, 2]]}, "bool coordinate True rejected"),
        ({"dim": 2, "points": [["1", None]]}, "NoneType coordinate None rejected"),
        ({"dim": 1, "points": [[1.5]]}, "float coordinate 1.5 rejected"),
        ({"dim": True, "points": [["1"]]}, "bad dimension: True"),
        ({"dim": 1, "points": "12"}, "'points' must be a list"),
        # number text is ASCII digits matched against the whole string
        ({"dim": 2, "points": [["1\n", "\u0662"]]}, r"string: '1\\n'"),
        ({"dim": 2, "points": [["1/2\n", "2"]]}, r"string: '1/2\\n'"),
        ({"dim": 1, "points": [["\u0661"]]}, "rational string"),
        ({"dim": 1, "points": [["\uff11/\uff12"]]}, "rational string"),
        ({"dim": 1, "points": [["1_0"]]}, "rational string"),
    ],
)
def test_json_rejects_non_point_values(blob, message):
    with pytest.raises(ValueError, match=message):
        PointSet.from_json(blob)


def test_raw_constructor_rejects_repeated_unsorted_and_misshapen_points():
    with pytest.raises(ValueError, match=r"strictly increasing: \(1, 2\) repeats"):
        PointSet(2, ((1, 2), (1, 2)))
    with pytest.raises(ValueError, match=r"strictly increasing: \(1, 2\) repeats"):
        PointSet(2, ((3, 4), (1, 2)))
    with pytest.raises(ValueError, match="point of length 3 in ambient dimension 2"):
        PointSet(2, ((0, 0), (1, 2, 3)))
    # the set is stored over its least common denominator, which only int and Fraction coordinates have
    with pytest.raises(ValueError, match=r"float coordinate 0\.5 rejected"):
        PointSet(1, ((0.5,), (1.5,)))
    with pytest.raises(ValueError, match=r"str coordinate '1' rejected"):
        PointSet(1, (("1",), ("2",)))
    with pytest.raises(ValueError, match=r"bool coordinate True rejected"):
        PointSet(2, ((0, True),))
    assert len(PointSet(2, ((1, 2), (3, 4)))) == 2
    assert len(PointSet(2, ())) == 0


@pytest.mark.parametrize(
    "matrix, translation, message",
    [
        (((True,),), (False,), "bool entry True rejected"),
        (((1,),), (False,), "bool entry False rejected"),
        (((Fraction(1, 2),),), (0.25,), r"float entry 0\.25 rejected"),
        (((0.5,),), (0,), r"float entry 0\.5 rejected"),
        ((("1",),), (0,), r"str entry '1' rejected"),
        (((1, 0), (0, 1)), (0, "1/2"), r"str entry '1/2' rejected"),
    ],
)
def test_raw_affine_map_rejects_entries_other_than_int_and_fraction(matrix, translation, message):
    # the map is stored over its least common denominator, which only int and Fraction entries have
    with pytest.raises(ValueError, match=message):
        AffineMap(matrix, translation)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: PointSet.of(2, [()]), "points must have at least one coordinate", id="no-coordinates"),
        pytest.param(lambda: PointSet.of(0, []), "bad dimension: 0", id="dim-0"),
        # the raw constructor builds through PointSet.of, so both refuse what from_json refuses
        pytest.param(lambda: PointSet(0, ()), "bad dimension: 0", id="raw-dim-0"),
        pytest.param(lambda: PointSet(-1, ()), "bad dimension: -1", id="raw-dim-negative"),
        pytest.param(lambda: PointSet(True, ((1,),)), "bad dimension: True", id="raw-dim-bool"),
        pytest.param(lambda: PointSet("2", ()), "bad dimension: '2'", id="raw-dim-str"),
        pytest.param(lambda: PointSet.of(True, [(1,)]), "bad dimension: True", id="dim-bool"),
        pytest.param(lambda: PointSet.of(2.0, [(1, 2)]), "bad dimension: 2.0", id="dim-float"),
        pytest.param(lambda: PointSet.of("2", []), "bad dimension: '2'", id="dim-str"),
        pytest.param(
            lambda: AffineMap([[1, 0]], [0]), "affine map needs a square matrix and a matching translation",
            id="affine-not-square",
        ),
        pytest.param(
            lambda: AffineMap.from_json({"matrix": "1", "translation": ["0"]}), "'matrix' must be a list of rows",
            id="affine-json-matrix",
        ),
    ],
)
def test_pointset_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_iterating_a_set_yields_its_fraction_points():
    assert list(pset(2, [(Fraction(1, 2), 3), (0, 1)])) == [(0, 1), (Fraction(1, 2), 3)]


@pytest.mark.parametrize(
    "form",
    [int, Fraction, str, IntSubclass, FractionSubclass],
    ids=["int", "fraction", "text", "int-subclass", "fraction-subclass"],
)
def test_int_fraction_and_text_inputs_agree(form):
    # ints enter as ints, yet every way in gives the fields and the Fraction outputs of the other two forms
    def point(p):
        return tuple(map(form, p))

    pts = [(0, 0, 0), (2, -4, 6), (1, 0, 3)]
    a = PointSet.of(3, map(point, pts))
    assert (a.dim, a.scale, a.ints) == (3, 1, ((0, 0, 0), (1, 0, 3), (2, -4, 6)))
    assert a == PointSet.from_json({"dim": 3, "points": [list(point(p)) for p in pts]})
    assert all(type(c) is Fraction for p in a.points for c in p)
    assert point((2, -4, 6)) in a and translate(a, point((0, 0, 1))).ints[0] == (0, 0, 1)
    assert Direction.of(point((2, -4, 6))).vec == (1, -2, 3)
    m = AffineMap.of([point((2, 0)), point((1, 1))], point((0, -3)))
    assert m == AffineMap([(Fraction(2), Fraction(0)), (Fraction(1), Fraction(1))], (Fraction(0), Fraction(-3)))
    assert m.translation == (0, -3) and all(type(c) is Fraction for c in (*m.translation, *chain(*m.matrix)))
    assert AffineMap.identity(3) == AffineMap.of([point((1, 0, 0)), point((0, 1, 0)), point((0, 0, 1))], point((0, 0, 0)))


@st.composite
def _memo_cases(draw):
    """(d, pts, other): two point lists in d = 2..4 with coordinates in halves, possibly equal."""
    d = draw(st.integers(2, 4))
    point = st.tuples(*[st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))] * d)
    return d, draw(st.lists(point, min_size=1, max_size=8, unique=True)), draw(st.lists(point, min_size=1, max_size=5))


_SET_FACTS = {
    "affine_dimension": affine_dimension,
    "difference_count": lambda a: difference_count(a, a),
    "sumset_count": lambda a: sumset_count(a, a),
}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_memo_cases())
def test_memoised_set_facts_match_a_fresh_set(case):
    d, pts, other = case
    a, b = PointSet.of(d, pts), PointSet.of(d, other)
    for name, fact in _SET_FACTS.items():
        assert fact(a) == fact(a) == fact(PointSet.of(d, pts)), name
    # a second operand is not the set itself, so its count is its own
    assert difference_count(a, b) == difference_count(PointSet.of(d, pts), b)
    assert sumset_count(a, b) == sumset_count(PointSet.of(d, pts), b)
    # building A - A and A + A records the counts that are asked for next
    c = PointSet.of(d, pts)
    built = len(difference_set(c, c)), len(sumset(c, c))
    assert built == (difference_count(c, c), sumset_count(c, c)) == (difference_count(a, a), sumset_count(a, a))


def test_a_set_with_a_filled_memo_equals_and_hashes_as_a_fresh_one():
    pts = [(0, 0), (Fraction(1, 2), 0), (1, 1), (2, Fraction(3, 2))]
    a = PointSet.of(2, pts)
    for fact in _SET_FACTS.values():
        fact(a)
    min_line_cover(a)
    sumset(a, a)
    fresh = PointSet.of(2, pts)
    assert a == fresh and fresh == a and hash(a) == hash(fresh)
    assert len({a, fresh}) == 1 and repr(a) == repr(fresh)


def test_each_set_fact_is_computed_once(monkeypatch):
    import sumlab.pointset

    calls = []
    for name in ("affine_rank", "_self_count", "_pairwise"):
        real = getattr(sumlab.pointset, name)
        monkeypatch.setattr(sumlab.pointset, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    a = PointSet.of(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    for _ in range(3):
        assert (affine_dimension(a), difference_count(a, a), sumset_count(a, a)) == (3, 21, 15)
    assert calls == ["affine_rank", "_self_count", "_self_count"]
    # the counts of A - A and A + A come with the sets; a second operand is counted every time
    b = PointSet.of(3, a.points)
    calls.clear()
    difference_set(b, b), sumset(b, b), difference_count(b, b), sumset_count(b, b)
    difference_count(a, b), difference_count(a, b)
    assert calls == ["_pairwise"] * 4
    # an empty set is refused on every call, as no count of it is ever kept
    empty = PointSet.of(3, [])
    for _ in range(2):
        with pytest.raises(ValueError, match="nonempty operands"):
            difference_count(empty, empty)
        with pytest.raises(ValueError, match="empty set has no affine dimension"):
            affine_dimension(empty)
