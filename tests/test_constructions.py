from fractions import Fraction

import pytest

from sumlab import (
    affine_dimension,
    difference_set,
    dlines_general_position,
    freiman_aps,
    line_partition,
    min_line_cover,
    stan_doubling_tight,
    stanchescu_dk,
    sumset,
    Direction,
)
from sumlab.linalg import affine_rank
from conftest import oracle_diff_count, oracle_sum_count


def test_stanchescu_2_3_exact_points():
    a = stanchescu_dk(2, 3)
    assert set(a.points) == {(0, 0), (1, 0), (2, 0), (-3, 1), (-2, 1), (-1, 1)}


def test_stanchescu_cardinality():
    for d in range(2, 7):
        for k in range(1, 9):
            assert len(stanchescu_dk(d, k)) == 2 * (d - 1) * k


def test_stanchescu_difference_identity():
    for d in range(2, 6):
        for k in range(1, 7):
            a = stanchescu_dk(d, k)
            want = (2 * d - 2 + Fraction(1, d - 1)) * len(a) - (2 * d * d - 4 * d + 3)
            assert want.denominator == 1
            got = len(difference_set(a, a))
            assert got == want == oracle_diff_count(a.points)


def test_stanchescu_small_cases():
    a = stanchescu_dk(2, 3)
    assert len(difference_set(a, a)) == 15
    b = stanchescu_dk(3, 2)
    assert len(b) == 8
    assert len(difference_set(b, b)) == 27


def test_stanchescu_dimension():
    # the progression part contributes the last-but-one axis only for k >= 2
    for d in (2, 3, 4, 5):
        assert affine_dimension(stanchescu_dk(d, 1)) == d - 1
        for k in (2, 3):
            assert affine_dimension(stanchescu_dk(d, k)) == d


def test_freiman_aps_identities():
    assert len(sumset(freiman_aps(1, (5,)), freiman_aps(1, (5,)))) == 9
    a = freiman_aps(2, (3, 3))
    assert len(sumset(a, a)) == 15 == oracle_sum_count(a.points)
    b = freiman_aps(3, (2, 2, 2))
    assert len(sumset(b, b)) == 18 == oracle_sum_count(b.points)
    for d in (1, 2, 3):
        for length in (1, 2, 4, 6):
            s = freiman_aps(d, (length,) * d)
            want = (d + 1) * len(s) - Fraction(d * (d + 1), 2)
            assert len(sumset(s, s)) == want


def test_freiman_aps_unequal_lengths():
    a = freiman_aps(2, (4, 2))
    assert len(a) == 6
    assert affine_dimension(a) == 2


def test_stan_doubling_identity():
    for d in (2, 3, 4, 5):
        for n in range(1, 7):
            a = stan_doubling_tight(d, n)
            assert len(a) == 3 * n + d - 2
            want = (d + Fraction(4, 3)) * len(a) - Fraction(3 * d * d + 5 * d + 8, 6)
            assert len(sumset(a, a)) == want


def test_stan_doubling_examples():
    a = stan_doubling_tight(3, 4)
    assert len(a) == 13 and len(sumset(a, a)) == 48
    b = stan_doubling_tight(2, 2)
    assert len(sumset(b, b)) == 15
    c = stan_doubling_tight(4, 3)
    assert len(c) == 11


def test_stan_doubling_line_cover():
    # the e2-column family plus one singleton line per extra basis point
    # covers with min(n,3) + d - 2 lines; above d exactly when n >= 3
    for d, n in [(3, 2), (4, 2)]:
        assert min_line_cover(stan_doubling_tight(d, n))[1] == d
    for d, n in [(2, 3), (3, 3), (3, 4), (4, 3), (4, 5)]:
        assert min_line_cover(stan_doubling_tight(d, n))[1] == d + 1


def test_dlines_matches_freiman_for_d2():
    assert dlines_general_position(2, (4, 4)) == freiman_aps(2, (4, 4))


def test_dlines_bound_and_general_position():
    a = dlines_general_position(3, (2, 2, 2))
    got = len(difference_set(a, a))
    assert got == oracle_diff_count(a.points)
    assert got >= (2 * 3 - 2 + Fraction(2, 3)) * 6 - 7 == 21

    # any k of the base points are affinely independent
    import itertools

    bases = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    for k in (2, 3):
        for subset in itertools.combinations(bases, k):
            assert affine_rank(subset) == k - 1


def test_generators_deterministic():
    assert stanchescu_dk(3, 2) == stanchescu_dk(3, 2)
    assert stan_doubling_tight(4, 3).points == stan_doubling_tight(4, 3).points


def test_parameter_validation():
    with pytest.raises(ValueError):
        stanchescu_dk(1, 3)
    with pytest.raises(ValueError):
        stanchescu_dk(3, 0)
    with pytest.raises(ValueError, match="need d >= 1"):
        freiman_aps(0, [])
    with pytest.raises(ValueError):
        freiman_aps(2, (3,))
    with pytest.raises(ValueError):
        freiman_aps(2, (3, 0))
    with pytest.raises(ValueError):
        stan_doubling_tight(1, 2)
    with pytest.raises(ValueError):
        dlines_general_position(1, (2,))


def test_stanchescu_row_structure():
    a = stanchescu_dk(2, 3)
    part = line_partition(a, Direction.of((1, 0)))
    assert part.class_sizes() == (3, 3)
