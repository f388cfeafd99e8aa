import random
from fractions import Fraction

import pytest

from sumlab import (
    AffineMap,
    PointSet,
    affine_dimension,
    apply_affine,
    difference_set,
    negate,
    sumset,
    translate,
)
from conftest import oracle_diff_count, oracle_pair_sum_count, pset


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
    with pytest.raises(ValueError, match=r"point \(1, 2, 3\) has length 3 in ambient dimension 2"):
        PointSet(2, ((0, 0), (1, 2, 3)))
    assert len(PointSet(2, ((1, 2), (3, 4)))) == 2
    assert len(PointSet(2, ())) == 0
