"""Property tests: the integer kernels against the brute-force Fraction oracles.

Operands range over d = 1..4 with integer, rational and mixed-denominator
coordinates (the two operands of a sum or difference drawing from different
denominators), general and collinear point sets, and sizes down to n = 2.
Supporting hyperplanes and the major hyperplane range over d = 2..5, with
sets of every affine rank and arbitrary directions; line partitions and
hyperplane slices over d = 2..4, along random directions and along a
difference of two set points.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumlab import (
    Direction,
    Hyperplane,
    PointSet,
    difference_set,
    hyperplane_slices,
    line_partition,
    major_hyperplane,
    min_line_cover,
    project_along,
    sumset,
    supporting_hyperplanes,
)
from conftest import (
    oracle_hyperplane_slices,
    oracle_line_partition,
    oracle_major_hyperplane,
    oracle_min_line_cover,
    oracle_pair_diffs,
    oracle_pair_sums,
    oracle_supporting_hyperplanes,
)

DENOMINATORS = {"integer": ((1,), (1,)), "rational": ((2, 3), (2, 3)), "mixed": ((1, 2, 4), (3, 5))}
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _coords(dens):
    return st.builds(Fraction, st.integers(-4, 4), st.sampled_from(dens))


def _points(d, dens, min_size):
    point = st.tuples(*[_coords(dens)] * d)
    general = st.lists(point, min_size=min_size, max_size=9, unique=True)
    steps = st.lists(st.integers(-4, 4), min_size=min_size, max_size=7, unique=True)
    direction = point.filter(any)
    collinear = st.builds(
        lambda base, v, ks: [tuple(b + k * x for b, x in zip(base, v)) for k in ks], point, direction, steps
    )
    return st.one_of(general, collinear)


@st.composite
def operands(draw):
    d = draw(st.integers(1, 4))
    dens_a, dens_b = DENOMINATORS[draw(st.sampled_from(sorted(DENOMINATORS)))]
    return d, draw(_points(d, dens_a, 1)), draw(_points(d, dens_b, 1))


@st.composite
def cover_sets(draw):
    d = draw(st.integers(1, 4))
    dens, _ = DENOMINATORS[draw(st.sampled_from(sorted(DENOMINATORS)))]
    return d, draw(_points(d, dens, 2))


def _is_exact(result: PointSet) -> bool:
    return all(type(c) is Fraction for p in result.points for c in p)


@PROPERTY
@given(operands())
def test_sumset_matches_oracle(case):
    d, pa, pb = case
    result = sumset(PointSet.of(d, pa), PointSet.of(d, pb))
    assert result.points == oracle_pair_sums(pa, pb)
    assert _is_exact(result)


@PROPERTY
@given(operands())
def test_difference_set_matches_oracle(case):
    d, pa, pb = case
    result = difference_set(PointSet.of(d, pa), PointSet.of(d, pb))
    assert result.points == oracle_pair_diffs(pa, pb)
    assert _is_exact(result)


@PROPERTY
@given(cover_sets())
def test_min_line_cover_matches_oracle(case):
    d, pts = case
    direction, count = min_line_cover(PointSet.of(d, pts))
    assert (direction.vec, count) == oracle_min_line_cover(pts)


@st.composite
def shadow_cases(draw):
    """A point set and a direction: general, lower-rank (shadow rank below d - 1) or collinear."""
    d = draw(st.integers(2, 5))
    dens, _ = DENOMINATORS[draw(st.sampled_from(sorted(DENOMINATORS)))]
    size = 7 if d == 5 else 10  # the oracle tries every k-subset of the shadow
    point = st.tuples(*[_coords(dens)] * d)
    rank = draw(st.sampled_from(range(d, 0, -1)))
    if rank == d:
        pts = draw(st.lists(point, min_size=d + 1, max_size=size, unique=True))
    else:  # base + sum of t_i * v_i over integer steps t: a subspace of the drawn rank or less
        base = draw(point)
        spans = draw(st.lists(point.filter(any), min_size=rank, max_size=rank))
        step = st.tuples(*[st.integers(-2, 2)] * rank)
        steps = draw(st.lists(step, min_size=rank + 1, max_size=size, unique=True))
        pts = [tuple(b + sum(t * v[i] for t, v in zip(ts, spans)) for i, b in enumerate(base)) for ts in steps]
    vec = draw(st.tuples(*[st.integers(-2, 2)] * d).filter(any))
    return d, pts, vec


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shadow_cases())
def test_supporting_hyperplanes_matches_oracle(case):
    d, pts, vec = case
    expected = oracle_supporting_hyperplanes(pts, vec)
    a, l = PointSet.of(d, pts), Direction.of(vec)
    if expected is None:
        with pytest.raises(ValueError, match="single point"):
            supporting_hyperplanes(a, l)
    else:
        assert [(h.normal, h.offset) for h in supporting_hyperplanes(a, l)] == expected


@PROPERTY
@given(shadow_cases())
def test_major_hyperplane_matches_oracle(case):
    d, pts, vec = case
    expected = oracle_major_hyperplane(pts, vec)
    a, l = PointSet.of(d, pts), Direction.of(vec)
    if expected is None:
        with pytest.raises(ValueError, match="single point"):
            major_hyperplane(a, l)
    else:
        h = major_hyperplane(a, l)
        assert (h.normal, h.offset) == expected


@st.composite
def vector_cases(draw):
    """A point set in d = 2..4 and a nonzero vector: small integers, or the difference of two set points."""
    d = draw(st.integers(2, 4))
    dens, _ = DENOMINATORS[draw(st.sampled_from(sorted(DENOMINATORS)))]
    pts = draw(_points(d, dens, 1))
    vec = draw(st.tuples(*[st.integers(-2, 2)] * d).filter(any))
    if len(pts) >= 2 and draw(st.booleans()):
        vec = tuple(y - x for x, y in zip(pts[0], pts[1]))
    return d, pts, vec


@PROPERTY
@given(vector_cases())
def test_line_partition_matches_oracle(case):
    d, pts, vec = case
    l = Direction.of(vec)
    part = line_partition(PointSet.of(d, pts), l)
    assert part.direction == l
    assert [(key, cls.points) for key, cls in part.classes] == oracle_line_partition(pts, vec)
    for key, cls in part.classes:
        assert all(type(c) is Fraction for c in key)
        assert all(project_along(p, l) == key for p in cls.points)


@PROPERTY
@given(vector_cases())
def test_hyperplane_slices_match_oracle(case):
    d, pts, normal = case
    a = PointSet.of(d, pts)
    values = [sum(Fraction(n) * c for n, c in zip(normal, p)) for p in pts]
    # supporting from above, supporting from below, and a strictly interior offset when there is one
    for offset in (max(values), min(values), (max(values) + min(values)) / 2):
        h = Hyperplane.of(normal, offset)
        slices = hyperplane_slices(a, h)
        assert all(s.normal == h.normal for s, _ in slices)
        assert all(type(s.offset) is Fraction for s, _ in slices)
        expected = oracle_hyperplane_slices(pts, h.normal, h.offset)
        assert [(s.offset, cls.points) for s, cls in slices] == expected
