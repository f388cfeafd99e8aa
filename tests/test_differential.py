"""Property tests: the integer kernels against the brute-force Fraction oracles.

Operands range over d = 1..4 with integer, rational and mixed-denominator
coordinates (the two operands of a sum or difference drawing from different
denominators), general and collinear point sets, and sizes down to n = 2.
Supporting hyperplanes and the major hyperplane range over d = 2..5, with
sets of every affine rank and arbitrary directions, and the facet
enumeration `_facets` alone also ranges past the oracle's reach, over 12-40
integer, rational and lower-rank points in d = 3..6, where every ridge must
lie in exactly two facets, and over cubes, cubes with their centre and edge
midpoints, cross-polytopes and a pyramid over a square; line partitions and
hyperplane slices over d = 2..4, along random directions and along a
difference of two set points. The counts `sumset_count` and
`difference_count` range over the same operands as the sets, and over each
operand with itself; a set's own counts, packed once under its balanced
radix, also range over sets in d = 1..4 with n = 1..12, integer or rational
on each axis, negative coordinates, zero-span axes and collinear sets, and
must equal the two-operand count on an equal but distinct set. The same sets
check `PointSet.to_json`, which writes its text from the integer points,
against the text of the `Fraction` points and its own `from_json`, the
number reader, whose every form of a coordinate (an int or a `Fraction`, a
subclass of either, text in lowest terms or not) must give the fields of the
set of the `Fraction`s, and the search's witness re-check,
`_tuple_diff_count`, which counts the lexicographically positive half of
A - A, against the oracle. The `linalg`
elimination is pinned through `affine_dimension` on flats of every rank in
d = 1..5, through `kernel_vector` on matrices of up to 5 x 5 of every rank,
with integer, rational and mixed int/Fraction entries, and through
`invert_matrix` on invertible integer matrices of up to 5 x 5. `compress`
(image and point map) and `apply_affine` range over d = 1..4 with integer,
rational and mixed points, rational offsets and translations, |n.v| up to 16
(anchors with a denominator neither the points nor the offset have), lines
of one point and lines of several. `reduce` traces range over full-dimensional
integer and rational sets in d = 2..4: the trace JSON round-trips to the same
bytes, a proper subset (the empty set included) replays to its images under
the oracle's maps step by step, and points off the domain are refused.
`AffineMap` ranges over invertible integer, rational and mixed maps in
d = 1..4: it and its inverse have the least scale, its Fraction views give it back, it is the inverse of its inverse, the inverse undoes its
image, and making the last row a combination of the others makes it singular. Every kernel that builds a set is checked to give the set
that `PointSet.of` gives on its points, with the least scale, over d = 1..4
and integer, rational and mixed operands, including results whose
denominator shrinks. The packed-code kernels (the counts, `sumset`,
`difference_set` and `min_line_cover`) also range over parallel arithmetic
progressions of up to 40 points, where most differences repeat, and over
coordinates up to 10^15 in size with denominators up to 10^6; the code
itself is checked to be one-to-one and inverted by decoding in d = 1..4,
with zero-span axes and negative coordinates.
"""

import itertools
import json
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sumlab import (
    AffineMap,
    CompressionSpec,
    CompressionTrace,
    Direction,
    Hyperplane,
    PointSet,
    affine_dimension,
    apply_affine,
    compress,
    difference_set,
    hyperplane_slices,
    line_partition,
    major_hyperplane,
    min_line_cover,
    negate,
    project_along,
    reduce,
    sumset,
    supporting_hyperplanes,
    translate,
)
from sumlab.compression import TraceStep
from sumlab.incidence import _facets
from sumlab.linalg import affine_basis, invert_matrix, kernel_vector
from sumlab.pointset import _pack, _unpack, difference_count, sumset_count
from sumlab.search import _tuple_diff_count
from conftest import (
    FractionSubclass,
    IntSubclass,
    _fraction_rref,
    oracle_apply_affine,
    oracle_compress,
    oracle_diff_count,
    oracle_hyperplane_slices,
    oracle_line_partition,
    oracle_major_hyperplane,
    oracle_min_line_cover,
    oracle_pair_diffs,
    oracle_pair_sum_count,
    oracle_pair_sums,
    oracle_sum_count,
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
@given(operands())
def test_sumset_count_matches_oracle(case):
    d, pa, pb = case
    a, b = PointSet.of(d, pa), PointSet.of(d, pb)
    assert sumset_count(a, b) == oracle_pair_sum_count(pa, pb)
    assert sumset_count(a, a) == oracle_sum_count(pa)


@PROPERTY
@given(operands())
def test_difference_count_matches_oracle(case):
    d, pa, pb = case
    a, b = PointSet.of(d, pa), PointSet.of(d, pb)
    assert difference_count(a, b) == len(oracle_pair_diffs(pa, pb))
    assert difference_count(a, a) == oracle_diff_count(pa)


@st.composite
def self_count_sets(draw):
    """(d, points): 1 to 12 points in d = 1..4, negative coordinates allowed, some axes held
    at one value (zero span), in general position or on one line, and each axis integer or
    over a denominator of 2, 3 or 6."""
    d = draw(st.integers(1, 4))
    held = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    point = st.tuples(*[st.just(draw(st.integers(-6, 6))) if h else st.integers(-6, 6) for h in held])
    general = st.lists(point, min_size=1, max_size=12, unique=True)
    steps = st.lists(st.integers(-5, 5), min_size=1, max_size=12, unique=True)
    vec = st.tuples(*[st.integers(-3, 3)] * d).filter(any)
    collinear = st.builds(lambda base, v, ks: [tuple(b + k * x for b, x in zip(base, v)) for k in ks], point, vec, steps)
    dens = draw(st.lists(st.sampled_from((1, 1, 2, 3, 6)), min_size=d, max_size=d))
    return d, [tuple(Fraction(x, m) for x, m in zip(p, dens)) for p in draw(st.one_of(general, collinear))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(self_count_sets())
@example((1, [(Fraction(-1, 2),)]))
def test_diff_count_matches_oracle(case):
    # a set with itself takes the packed count under its own balanced radix, and an equal set
    # that is not the set itself takes the two-operand count
    d, pts = case
    a = PointSet.of(d, pts)
    twin = PointSet.of(a.dim, a.points)
    assert twin == a and twin is not a
    assert difference_count(a, a) == difference_count(a, twin) == oracle_diff_count(pts)
    assert sumset_count(a, a) == sumset_count(a, twin) == oracle_sum_count(pts)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(self_count_sets())
@example((2, [(-3, 0), (0, 2), (4, -1)]))
@example((3, [(Fraction(-1, 2), 0, Fraction(2, 3))]))
def test_to_json_writes_the_fraction_view(case):
    # to_json writes each coordinate's text from the ints, at scale 1 and above, without the
    # Fraction view; the text is that view's, and it reads back as the same set
    d, pts = case
    a = PointSet.of(d, pts)
    obj = a.to_json()
    assert "points" not in vars(a)
    assert obj == {"dim": d, "points": [[str(c) for c in p] for p in a.points]}
    assert PointSet.from_json(obj) == a


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(self_count_sets())
@example((3, [(0, 0, 0)]))
@example((2, [(0, 0), (1, 0)]))
def test_tuple_diff_count_matches_oracle(case):
    # the witness re-check counts the lexicographically positive half of A - A on points in
    # strictly increasing order, one-point sets included
    _, pts = case
    pts = tuple(sorted(pts))
    assert _tuple_diff_count(pts) == oracle_diff_count(pts)


@st.composite
def _written(draw, c: Fraction):
    """c as one of the forms a coordinate may take: an int or an int subclass when c is an integer,
    a Fraction or a Fraction subclass, its text in lowest terms, or text that is not (a common
    factor in numerator and denominator, leading zeros, "/1", or "-0")."""
    forms = {"fraction": Fraction, "fraction-subclass": FractionSubclass, "text": str, "other-text": None}
    if c.denominator == 1:
        forms.update({"int": int, "int-subclass": IntSubclass})
    form = draw(st.sampled_from(list(forms)))
    if form == "other-text":
        n, m = c.as_integer_ratio()
        k, zeros = draw(st.integers(1, 4)), "0" * draw(st.integers(0, 2))
        sign = "-" if n < 0 or (n == 0 and draw(st.booleans())) else ""
        return f"{sign}{zeros}{abs(n) * k}" + ("" if m * k == 1 and draw(st.booleans()) else f"/{zeros}{m * k}")
    return forms[form](c)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(self_count_sets(), st.data())
def test_every_coordinate_form_reads_alike(case, data):
    # each coordinate is read to the same number whatever its form, so the set has the fields of
    # the set of the Fractions, through PointSet.of and from_json alike
    d, pts = case
    written = [tuple(data.draw(_written(c)) for c in p) for p in pts]
    want = PointSet.of(d, pts)
    a = PointSet.of(d, written)
    assert (a.scale, a.ints) == (want.scale, want.ints)
    assert PointSet.from_json({"dim": d, "points": [list(p) for p in written]}) == want


@PROPERTY
@given(cover_sets())
def test_min_line_cover_matches_oracle(case):
    d, pts = case
    direction, count = min_line_cover(PointSet.of(d, pts))
    assert (direction.vec, count) == oracle_min_line_cover(pts)


@st.composite
def ap_sets(draw):
    """(d, points): up to five parallel arithmetic progressions with one step, up to 40 points
    in d = 1..4, integer or over a denominator of 2 or 3, so that most differences repeat."""
    d = draw(st.integers(1, 4))
    den = draw(st.sampled_from((1, 1, 2, 3)))
    step = draw(st.tuples(*[st.integers(-3, 3)] * d).filter(any))
    starts = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * d), min_size=1, max_size=5, unique=True))
    length = draw(st.integers(1, 40 // len(starts)))
    pts = {tuple(Fraction(s + k * x, den) for s, x in zip(start, step)) for start in starts for k in range(length)}
    return d, sorted(pts)


@st.composite
def wide_sets(draw):
    """(d, points): 1 to 8 points in d = 1..4 with numerators up to 10^15 in size and
    denominators up to 10^6, each axis integer, rational or held at one value."""
    d = draw(st.integers(1, 4))
    axes = []
    for _ in range(d):
        kind = draw(st.sampled_from(("integer", "rational", "held")))
        big = st.integers(-(10**15), 10**15)
        if kind == "held":
            axes.append(st.just(draw(st.builds(Fraction, big, st.integers(1, 10**6)))))
        else:
            axes.append(st.builds(Fraction, big, st.integers(1, 10**6) if kind == "rational" else st.just(1)))
    return d, draw(st.lists(st.tuples(*axes), min_size=1, max_size=8, unique=True))


def _check_packed_kernels(first, second):
    """The counts and sets of A + B, A - B, A + A and A - A, and the line cover of A, against the
    oracles; B is the second set cut or padded with zeros to the first one's dimension."""
    (d, pa), (_, pb) = first, second
    pb = sorted({(*p[:d], *[Fraction(0)] * (d - len(p))) for p in pb})
    a, b = PointSet.of(d, pa), PointSet.of(d, pb)
    assert sumset(a, b).points == oracle_pair_sums(pa, pb)
    assert difference_set(a, b).points == oracle_pair_diffs(pa, pb)
    assert sumset(a, a).points == oracle_pair_sums(pa, pa)
    assert difference_set(a, a).points == oracle_pair_diffs(pa, pa)
    assert sumset_count(a, b) == oracle_pair_sum_count(pa, pb)
    assert difference_count(a, b) == len(oracle_pair_diffs(pa, pb))
    assert sumset_count(a, a) == oracle_sum_count(pa)
    assert difference_count(a, a) == oracle_diff_count(pa)
    if len(pa) >= 2:
        direction, count = min_line_cover(a)
        assert (direction.vec, count) == oracle_min_line_cover(pa)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ap_sets(), ap_sets())
def test_packed_kernels_on_progressions_match_oracles(first, second):
    _check_packed_kernels(first, second)


@PROPERTY
@given(wide_sets(), wide_sets())
def test_packed_kernels_on_wide_coordinates_match_oracles(first, second):
    _check_packed_kernels(first, second)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_code_is_one_to_one_and_decoding_inverts_it(d):
    # a box with negative corners and, from d = 2 on, a zero-span axis (one value, range 1)
    lo = [-3, 5, -1, 0][:d]
    ranges = [4, 1, 3, 2][:d]
    box = list(itertools.product(*(range(l, l + r) for l, r in zip(lo, ranges))))
    codes = _pack(box, ranges)
    assert len(set(codes)) == len(box)
    assert codes == sorted(codes)  # lexicographic order is code order
    assert _unpack(codes, lo, ranges) == box
    # the balanced radix 2 * span + 1 of the same box: distinct differences of its points get distinct codes
    spans = [r - 1 for r in ranges]
    balanced = [2 * s + 1 for s in spans]
    diffs = sorted({tuple(x - y for x, y in zip(p, q)) for p in box for q in box})
    codes = _pack(diffs, balanced)
    assert len(set(codes)) == len(diffs) and codes == sorted(codes)
    assert _unpack(codes, [-s for s in spans], balanced) == diffs


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


# past the oracle's reach (7-10 points): a box per dimension small enough to keep the facet count in hand
HULL_BOX = {3: (-4, 4), 4: (-3, 3), 5: (-1, 1), 6: (0, 1)}


@st.composite
def hull_cases(draw):
    """Sorted integer points, 12-40 of them in d = 3..6: a box sample, its image under a rational
    diagonal map (brought back to integers by `PointSet.of`), or a lattice of lower rank."""
    d = draw(st.integers(3, 6))
    lo, hi = HULL_BOX[d]
    kind = draw(st.sampled_from(["integer", "rational", "lower rank"]))
    if kind == "lower rank":
        rank = draw(st.integers(1, d - 1))
        spans = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d).filter(any), min_size=rank, max_size=rank))
        reach = 6 if rank == 1 else 2  # room for 12 distinct steps
        steps = draw(st.lists(st.tuples(*[st.integers(-reach, reach)] * rank), min_size=12, max_size=40, unique=True))
        pts = [tuple(sum(t * v[i] for t, v in zip(ts, spans)) for i in range(d)) for ts in steps]
    else:
        pts = draw(st.lists(st.tuples(*[st.integers(lo, hi)] * d), min_size=12, max_size=40, unique=True))
        if kind == "rational":
            dens = draw(st.tuples(*[st.sampled_from((1, 2, 3))] * d))
            pts = [tuple(Fraction(x, q) for x, q in zip(p, dens)) for p in pts]
    return list(PointSet.of(d, pts).ints)


def _assert_complete_hull(pts, facets):
    """Every facet is primitive, in the span of the points' differences, keeps every point on one side and
    meets them in a face of rank k - 1; every ridge lies in exactly two facets, so no facet is missing."""
    k = len(affine_basis(pts))
    assert len(facets) >= k + 1 if k > 1 else len(facets) == 2
    ridges = Counter()
    for n, c in facets:
        assert gcd(*n) == 1 and len(affine_basis([*pts, tuple(x + y for x, y in zip(pts[0], n))])) == k
        heights = [c - sum(map(mul, n, p)) for p in pts]
        assert min(heights) == 0
        face = [p for p, h in zip(pts, heights) if h == 0]
        assert len(affine_basis(face)) == k - 1
        if k == 1:
            continue
        if len(face) == k:  # a simplex: its ridges are its (k-1)-subsets
            ridges.update(itertools.combinations(face, k - 1))
        else:
            ridges.update(tuple(p for p in face if sum(map(mul, m, p)) == cm) for m, cm in _facets(face))
    assert set(ridges.values()) <= {2}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(hull_cases())
def test_facets_of_larger_sets_close_up(pts):
    _assert_complete_hull(pts, _facets(pts))


def _unit(d, i, sign=1):
    return tuple(sign if j == i else 0 for j in range(d))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_facets_of_cube_and_cross_polytope(d):
    cube = sorted(itertools.product((0, 1), repeat=d))
    expected = {(_unit(d, i), 1) for i in range(d)} | {(_unit(d, i, -1), 0) for i in range(d)}
    assert _facets(cube) == expected
    # points inside facets and ridges leave the facets as they were: the doubled cube with its centre and edge midpoints
    mids = [p for p in itertools.product((0, 1, 2), repeat=d) if p.count(1) in (1, d)]
    dense = sorted({tuple(2 * x for x in p) for p in cube} | set(mids))
    assert _facets(dense) == {(n, 2 * c) for n, c in expected}
    cross = sorted(_unit(d, i, s) for i in range(d) for s in (1, -1))
    assert _facets(cross) == {(signs, 1) for signs in itertools.product((1, -1), repeat=d)}
    for pts in (cube, dense, cross):
        _assert_complete_hull(pts, _facets(pts))


def test_facets_of_a_pyramid_over_a_square():
    pts = sorted([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)])
    assert _facets(pts) == {((0, 0, -1), 0), ((-1, 0, 1), 0), ((1, 0, 1), 2), ((0, -1, 1), 0), ((0, 1, 1), 2)}
    _assert_complete_hull(pts, _facets(pts))


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


def _rank(rows) -> int:
    return len(_fraction_rref([[Fraction(x) for x in row] for row in rows])[1])


def _plain(x):
    """An integral Fraction as an int, so rational and mixed rows mix both types."""
    return x.numerator if x.denominator == 1 else x


@st.composite
def flats(draw):
    """Points in d = 1..5 on a flat of drawn rank 0..d: base + sum of t_i * v_i over integer steps t."""
    d = draw(st.integers(1, 5))
    dens, _ = DENOMINATORS[draw(st.sampled_from(sorted(DENOMINATORS)))]
    point = st.tuples(*[_coords(dens)] * d)
    rank = draw(st.integers(0, d))
    base = draw(point)
    spans = draw(st.lists(point, min_size=rank, max_size=rank))
    steps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank), min_size=1, max_size=9, unique=True))
    return d, {tuple(b + sum(t * v[i] for t, v in zip(ts, spans)) for i, b in enumerate(base)) for ts in steps}


@PROPERTY
@given(flats())
def test_affine_dimension_matches_oracle(case):
    d, pts = case
    pts = sorted(pts)
    assert affine_dimension(PointSet.of(d, pts)) == _rank([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]])


@st.composite
def matrices(draw):
    """(ncols, rows): 1..5 rows of 1..5 columns, of every rank, with integer, rational or mixed
    entries; a row past the drawn rank is an integer combination of the rows before it."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    dens, _ = DENOMINATORS[draw(st.sampled_from(sorted(DENOMINATORS)))]
    rank = draw(st.integers(0, min(nrows, ncols)))
    rows = draw(st.lists(st.tuples(*[_coords(dens)] * ncols), min_size=rank, max_size=rank))
    for _ in range(nrows - rank):
        ts = draw(st.tuples(*[st.integers(-2, 2)] * rank))
        rows.append(tuple(sum((t * row[j] for t, row in zip(ts, rows)), Fraction(0)) for j in range(ncols)))
    rows = draw(st.permutations(rows))
    return ncols, [tuple(map(_plain, row)) for row in rows]


@PROPERTY
@given(matrices())
def test_kernel_vector_matches_oracle(case):
    ncols, rows = case
    pivots = _fraction_rref([[Fraction(x) for x in row] for row in rows])[1]
    v = kernel_vector(rows, ncols)
    if len(pivots) == ncols:
        assert v is None
        return
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
    # nonzero in the first free column, zero in the other free columns
    free = [c for c in range(ncols) if c not in pivots]
    assert v[free[0]] != 0 and not any(v[c] for c in free[1:])
    if all(type(x) is int for row in rows for x in row):
        assert all(type(x) is int for x in v)


@st.composite
def invertible_matrices(draw):
    """(n, rows): an invertible n x n integer matrix, n = 1..5."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n), min_size=n, max_size=n))
    assume(_rank(rows) == n)
    return n, rows


@PROPERTY
@given(invertible_matrices())
def test_invert_matrix_matches_oracle(case):
    n, rows = case
    den, k = invert_matrix(rows)
    assert type(den) is int and den > 0
    assert all(type(x) is int for row in k for x in row)
    product = [[sum(a * k[i][j] for i, a in enumerate(row)) for j in range(n)] for row in rows]
    assert product == [[den * (i == j) for j in range(n)] for i in range(n)]


@st.composite
def compress_cases(draw):
    """(d, points, normal, offset, direction): a few lines along the direction, each with one to
    four points, plus stray points; normal . direction is never 0."""
    d = draw(st.integers(1, 4))
    dens, _ = DENOMINATORS[draw(st.sampled_from(sorted(DENOMINATORS)))]
    vec = draw(st.tuples(*[st.integers(-2, 2)] * d).filter(any))
    normal = draw(st.tuples(*[st.integers(-2, 2)] * d).filter(lambda n: sum(map(mul, n, vec))))
    offset = draw(_coords((1, 2, 3, 5)))
    point = st.tuples(*[_coords(dens)] * d)
    lines = draw(st.lists(st.tuples(point, st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True)),
                          min_size=1, max_size=4))
    pts = {tuple(b + k * x for b, x in zip(base, vec)) for base, ks in lines for k in ks}
    pts.update(draw(st.lists(point, max_size=3)))
    return d, sorted(pts), normal, offset, vec


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(compress_cases())
def test_compress_matches_oracle(case):
    d, pts, normal, offset, vec = case
    image, mapping = compress(PointSet.of(d, pts), CompressionSpec(Hyperplane.of(normal, offset), Direction.of(vec)))
    want_image, want_map = oracle_compress(pts, normal, offset, vec)
    assert image.points == want_image
    assert mapping == want_map
    assert _is_exact(image)
    assert all(type(c) is Fraction for p in mapping.values() for c in p)


@pytest.mark.parametrize(
    "pts, normal, offset, vec",
    [
        # n.v = 3 and offset 1/3 on integer points: the anchors have denominator 9
        ([(0, 0), (1, 1), (2, 2), (1, 0)], (1, 2), Fraction(1, 3), (1, 1)),
        # n.v = -5, rational points, every line a single point
        ([(Fraction(1, 2), 0), (0, Fraction(1, 3)), (2, 2)], (1, 2), Fraction(-1, 2), (-1, 3)),
        # d = 1: one line, n.v = 4
        ([(Fraction(-3, 2),), (0,), (7,)], (2,), Fraction(2, 5), (2,)),
    ],
    ids=["nv3-integer", "nv-5-singletons", "d1-nv4"],
)
def test_compress_matches_oracle_examples(pts, normal, offset, vec):
    spec = CompressionSpec(Hyperplane.of(normal, offset), Direction.of(vec))
    image, mapping = compress(PointSet.of(len(vec), pts), spec)
    want_image, want_map = oracle_compress(pts, normal, offset, vec)
    assert (image.points, mapping) == (want_image, want_map)


@st.composite
def affine_cases(draw):
    """(d, points, matrix, translation) with an invertible matrix; entries integer, rational or mixed."""
    d = draw(st.integers(1, 4))
    dens, map_dens = DENOMINATORS[draw(st.sampled_from(sorted(DENOMINATORS)))]
    pts = draw(_points(d, dens, 1))
    matrix = draw(st.lists(st.tuples(*[_coords(map_dens)] * d), min_size=d, max_size=d))
    assume(len(_fraction_rref(matrix)[1]) == d)
    translation = draw(st.tuples(*[_coords((1, 2, 7))] * d))
    return d, pts, matrix, translation


@PROPERTY
@given(affine_cases())
def test_apply_affine_matches_oracle(case):
    d, pts, matrix, translation = case
    image = apply_affine(PointSet.of(d, pts), AffineMap.of(matrix, translation))
    assert image.points == oracle_apply_affine(pts, matrix, translation)
    assert _is_exact(image)


@PROPERTY
@given(affine_cases(), st.lists(_coords((1, 2, 3)), min_size=3, max_size=3))
def test_affine_map_has_the_least_scale_and_inverts(case, coefficients):
    d, pts, matrix, translation = case
    m = AffineMap.of(matrix, translation)
    assert m.scale == lcm(*(c.denominator for row in (*matrix, translation) for c in row))
    assert m.rows == tuple(tuple(c * m.scale for c in row) for row in matrix)
    assert m.shift == tuple(c * m.scale for c in translation)
    # built from its own Fraction views the map compares and hashes equal
    again = AffineMap.of(m.matrix, m.translation)
    assert m == again and hash(m) == hash(again)
    assert m.inverse.inverse == m
    # built from its own Fraction views the inverse compares equal, so it has the least scale
    assert m.inverse == AffineMap.of(m.inverse.matrix, m.inverse.translation)
    a = PointSet.of(d, pts)
    assert apply_affine(apply_affine(a, m), m.inverse) == a
    # a last row that is a rational combination of the others (zero for d = 1) makes the matrix singular
    last = [sum((k * row[j] for k, row in zip(coefficients, matrix[:-1])), Fraction(0)) for j in range(d)]
    with pytest.raises(ValueError, match="singular matrix"):
        AffineMap.of([*matrix[:-1], last], translation)


@st.composite
def route_cases(draw):
    """(d, a, b, vec, factor, shift, offset): two operands as for the set arithmetic, a nonzero
    direction, the map x -> factor * x + shift and a hyperplane offset."""
    d, pa, pb = draw(operands())
    vec = draw(st.tuples(*[st.integers(-2, 2)] * d).filter(any))
    factor = draw(st.sampled_from([Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(3, 2)]))
    shift = draw(st.tuples(*[_coords((1, 2, 3))] * d))
    return d, pa, pb, vec, factor, shift, draw(_coords((1, 2, 3)))


def _assert_canonical(out: PointSet) -> None:
    # built from its own Fraction points the set compares and hashes equal, so it has the least scale
    fresh = PointSet.of(out.dim, out.points)
    assert out == fresh and hash(out) == hash(fresh)
    assert out.scale == lcm(*(c.denominator for p in out.points for c in p))
    assert out.ints == tuple(tuple(c * out.scale for c in p) for p in out.points)


@PROPERTY
@given(route_cases())
# the denominator shrinks: {1/2} + {1/2} = {1}, {1/2, 3/2} - {1/2, 3/2} and the images under x -> 2x
@example((1, [(Fraction(1, 2),)], [(Fraction(1, 2),)], (1,), Fraction(2), (Fraction(1, 2),), Fraction(1, 2)))
@example((2, [(Fraction(1, 2), 0), (Fraction(3, 2), 1)], [(Fraction(1, 3), 1)], (1, 1), Fraction(2), (0, 0), 0))
def test_every_kernel_output_has_the_least_scale(case):
    d, pa, pb, vec, factor, shift, offset = case
    a, b = PointSet.of(d, pa), PointSet.of(d, pb)
    l = Direction.of(vec)
    m = AffineMap.of([[factor * (i == j) for j in range(d)] for i in range(d)], shift)
    spec = CompressionSpec(Hyperplane.of(vec, offset), l)
    moved = apply_affine(a, m)
    image, _ = compress(moved, spec)
    trace = CompressionTrace((TraceStep(spec, moved),), m)
    assert trace.replay(a) == image == trace.apply_specs(a)
    h = Hyperplane.of(vec, max(sum(n * c for n, c in zip(vec, p)) for p in pa))
    outs = [
        sumset(a, b), difference_set(a, b), difference_set(a, a), negate(a), translate(a, pb[0]),
        translate(a, [-c for c in pa[0]]), moved, image, trace.replay(a),
        *(cls for _, cls in line_partition(a, l).classes), *(cls for _, cls in hyperplane_slices(a, h)),
    ]
    for out in outs:
        _assert_canonical(out)
    members = set(a.points)
    for p in a.points:
        # a point off the set's lattice: its first coordinate's denominator does not divide the scale
        off = (p[0] + Fraction(1, 2 * a.scale), *p[1:])
        assert p in a and off not in a
    assert all((q in a) == (q in members) for q in [*b.points, *sumset(a, b).points])


@st.composite
def reduce_cases(draw):
    """(d, points, vec): a full-dimensional set in Q^d, d = 2..4, with integer or rational
    coordinates and two of its points on one line along vec; in the plane the set lies on
    exactly two lines along vec, the only case `reduce` takes there."""
    d = draw(st.integers(2, 4))
    dens, _ = DENOMINATORS[draw(st.sampled_from(["integer", "rational"]))]
    point = st.tuples(*[_coords(dens)] * d)
    if d == 2:
        vec = draw(st.tuples(*[st.integers(-2, 2)] * 2).filter(any))
        base0, base1 = draw(point), draw(point)
        assume((base1[0] - base0[0]) * vec[1] != (base1[1] - base0[1]) * vec[0])
        ks = st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True)
        ks0, ks1 = draw(ks), draw(ks)
        assume(len(ks0) + len(ks1) >= 3)
        pts = [tuple(c + k * x for c, x in zip(base, vec)) for base, ks in ((base0, ks0), (base1, ks1)) for k in ks]
        return d, pts, vec
    pts = draw(st.lists(point, min_size=d + 2, max_size=d + 6, unique=True))
    assume(affine_dimension(PointSet.of(d, pts)) == d)
    i, j = draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2, unique=True))
    return d, pts, tuple(x - y for x, y in zip(pts[i], pts[j]))


@PROPERTY
@given(reduce_cases(), st.data())
def test_reduce_trace_round_trips_and_replays_each_subset(case, data):
    d, pts, vec = case
    a = PointSet.of(d, pts)
    _, _, trace = reduce(a, PointSet.of(d, []), Direction.of(vec))
    text = json.dumps(trace.to_json())
    back = CompressionTrace.from_json(json.loads(text))
    assert back == trace
    assert json.dumps(back.to_json()) == text
    # a proper subset, the empty set included, replays to its images under the oracle's maps of the whole chain
    sub = data.draw(st.lists(st.sampled_from(a.points), max_size=len(a) - 1, unique=True))
    m = trace.initial_affine
    whole = oracle_apply_affine(a.points, m.matrix, m.translation)
    want = oracle_apply_affine(sub, m.matrix, m.translation)
    for step in back.steps:
        spec = step.spec
        whole, mapping = oracle_compress(whole, spec.hyperplane.normal, spec.hyperplane.offset, spec.direction.vec)
        want = [mapping[p] for p in want]
    assert back.replay(PointSet.of(d, sub)).points == tuple(sorted(want))
    # outside the domain: the subset and a point beyond A's largest, and, with the steps alone, a
    # point whose first coordinate has a denominator that does not divide the first domain's scale
    last = a.points[-1]
    source = back.steps[0].source
    off = (source.points[0][0] + Fraction(1, 2 * source.scale), *source.points[0][1:])
    for run, outside in [(back, [*sub, (last[0] + 1, *last[1:])]), (CompressionTrace(back.steps), [off])]:
        with pytest.raises(ValueError, match="replay input does not match the recorded domain"):
            run.replay(PointSet.of(d, outside))
