"""Property tests: the integer kernels against the brute-force Fraction oracles.

Operands range over d = 1..4 with integer, rational and mixed-denominator
coordinates (the two operands of a sum or difference drawing from different
denominators), general and collinear point sets, and sizes down to n = 2.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from sumlab import PointSet, difference_set, min_line_cover, sumset
from conftest import oracle_min_line_cover, oracle_pair_diffs, oracle_pair_sums

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
