import itertools
import random
import re
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumlab import (
    Direction,
    Hyperplane,
    PointSet,
    affine_dimension,
    check_claim,
    hyperplane_slices,
    line_partition,
    major_hyperplane,
    min_line_cover,
    stan_doubling_tight,
    stanchescu_dk,
    structure_diagnose,
    supporting_hyperplanes,
    translate,
)
from sumlab.incidence import project_along
from conftest import pset

E1 = Direction.of((1, 0))
E2 = Direction.of((0, 1))


def test_direction_canonicalization():
    assert Direction.of((2, -4)).vec == (1, -2)
    assert Direction.of((-1, 2)).vec == (1, -2)
    assert Direction.of((Fraction(1, 2), Fraction(1, 3))).vec == (3, 2)
    with pytest.raises(ValueError):
        Direction.of((0, 0))


def test_hyperplane_canonicalization():
    h = Hyperplane.of((0, -2), -4)
    assert h.normal == (0, 1) and h.offset == 2
    assert h == Hyperplane.of((0, 1), 2)
    assert h.to_json() == {"normal": ["0", "1"], "offset": "2"}
    with pytest.raises(ValueError, match="zero normal"):
        Hyperplane.of((0, 0), 1)


def test_hyperplane_scales_offset_with_normal():
    # {x : normal . x = offset} is kept: (normal, offset) -> (c normal, c offset) for one c != 0
    rng = random.Random(7)
    for _ in range(300):
        d = rng.randint(1, 4)
        # integer entries half the time, given as ints half of that: the offset still comes out a Fraction
        den = rng.choice((1, 6))
        normal = [Fraction(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(d)]
        if not any(normal):
            continue
        offset = Fraction(rng.randint(-9, 9), rng.randint(1, den))
        if rng.random() < 0.5:
            normal = [int(n) if n.denominator == 1 else n for n in normal]
            offset = int(offset) if offset.denominator == 1 else offset
        h = Hyperplane.of(normal, offset)
        c = Fraction(next(n for n in h.normal if n)) / next(n for n in normal if n)
        assert h.normal == tuple(c * n for n in normal) and h.offset == c * offset
        assert type(h.offset) is Fraction
        assert h.normal == Direction.of(normal).vec
    # an int normal with a common factor divides the int offset by it
    for normal, offset, want in [
        ((2, 4), 3, ((1, 2), Fraction(3, 2))),
        ((-2, 4), 3, ((1, -2), Fraction(-3, 2))),
        ((0, 3), 6, ((0, 1), Fraction(2))),
        ((Fraction(2, 3), 4), "1/3", ((1, 6), Fraction(1, 2))),
    ]:
        h = Hyperplane.of(normal, offset)
        assert (h.normal, h.offset) == want and type(h.offset) is Fraction


@pytest.mark.parametrize("vec", [(1.5, 1), (0.0, 1.0), (1, 0.0), ("1.5", "1"), (" 1", "0")])
def test_direction_rejects_floats_and_lax_strings(vec):
    with pytest.raises(ValueError):
        Direction.of(vec)
    with pytest.raises(ValueError):
        Direction.from_json({"vec": list(vec)})


@pytest.mark.parametrize(
    "normal, offset",
    [((1.0, 0), 0), ((1, 0.5), 0), ((1, 0), 0.0), ((1, 0), 0.5), (("1", "0"), "0.5"), (("1", "0"), " 1")],
)
def test_hyperplane_rejects_floats_and_lax_strings(normal, offset):
    with pytest.raises(ValueError):
        Hyperplane.of(normal, offset)
    with pytest.raises(ValueError):
        Hyperplane.from_json({"normal": list(normal), "offset": offset})


def test_line_partition_examples():
    part = line_partition(pset(2, [(0, 0), (1, 0), (0, 1)]), E1)
    assert part.count == 2 and sorted(part.class_sizes()) == [1, 2]
    assert line_partition(pset(1, [(0,), (1,), (2,)]), Direction.of((1,))).count == 1
    assert line_partition(stanchescu_dk(2, 3), E1).class_sizes() == (3, 3)


def test_line_partition_counts_bounds():
    rng = random.Random(3)
    for _ in range(30):
        d = rng.choice((2, 3))
        a = pset(d, {tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(1, 10))})
        vec = tuple(rng.randint(-2, 2) for _ in range(d))
        if not any(vec):
            vec = (1,) + (0,) * (d - 1)
        part = line_partition(a, Direction.of(vec))
        assert 1 <= part.count <= len(a)
        assert sum(part.class_sizes()) == len(a)
        # a full-dimensional set cannot be covered by fewer than d parallel lines
        if affine_dimension(a) == d:
            assert part.count >= d


def test_partition_class_sizes_translation_invariant():
    rng = random.Random(4)
    for _ in range(20):
        a = pset(2, {tuple(rng.randint(0, 5) for _ in range(2)) for _ in range(rng.randint(2, 9))})
        moved = translate(a, (rng.randint(-4, 4), rng.randint(-4, 4)))
        assert sorted(line_partition(a, E1).class_sizes()) == sorted(
            line_partition(moved, E1).class_sizes()
        )


def test_min_line_cover_grid_and_collinear():
    grid = pset(2, [(i, j) for i in range(3) for j in range(3)])
    direction, count = min_line_cover(grid)
    assert count == 3
    assert direction.vec in ((1, 0), (0, 1))
    collinear = pset(2, [(0, 0), (1, 1), (2, 2)])
    assert min_line_cover(collinear) == (Direction.of((1, 1)), 1)


def test_min_line_cover_rejects_repeated_point():
    # the raw constructor refuses the repeated point before any pair direction is formed
    with pytest.raises(ValueError, match=r"strictly increasing: \(1, 2\) repeats"):
        min_line_cover(PointSet(2, ((1, 2), (1, 2), (3, 4))))


def test_min_line_cover_exhaustiveness_small():
    # cross-check against every direction in a bounded integer window
    a = stan_doubling_tight(3, 4)
    _, count = min_line_cover(a)
    assert count == 4
    window = [
        Direction.of(v)
        for v in itertools.product(range(-3, 4), repeat=3)
        if any(v)
    ]
    assert min(line_partition(a, d).count for d in set(window)) == 4


def test_supporting_hyperplanes_examples():
    grid = pset(2, [(i, j) for i in range(3) for j in range(3)])
    hs = supporting_hyperplanes(grid, E1)
    assert hs == [Hyperplane.of((0, 1), 0), Hyperplane.of((0, 1), 2)]

    tri = pset(2, [(0, 0), (1, 0), (0, 1)])
    assert supporting_hyperplanes(tri, E2) == [
        Hyperplane.of((1, 0), 0),
        Hyperplane.of((1, 0), 1),
    ]

    s32 = stanchescu_dk(3, 2)
    hs3 = supporting_hyperplanes(s32, Direction.of((0, 1, 0)))
    plane_of_top_block = Hyperplane.of((0, 0, 1), 0)
    assert plane_of_top_block in hs3


def test_supporting_hyperplanes_projection_degenerate():
    column = pset(2, [(0, 0), (0, 1), (0, 5)])
    with pytest.raises(ValueError):
        supporting_hyperplanes(column, E2)


def test_supporting_hyperplanes_one_closed_side():
    rng = random.Random(14)
    for _ in range(25):
        d = rng.choice((2, 3, 4))
        a = pset(d, {tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(3, 10))})
        vec = tuple(rng.randint(-2, 2) for _ in range(d))
        if not any(vec):
            vec = (0,) * (d - 1) + (1,)
        l = Direction.of(vec)
        if len({project_along(p, l) for p in a.points}) < 2:
            continue
        for h in supporting_hyperplanes(a, l):
            assert sum(n * v for n, v in zip(h.normal, l.vec)) == 0
            # normal . p' = scale * offset on the plane, for the set's integer points p' = scale * p
            values = [sum(map(mul, h.normal, p)) for p in a.ints]
            c = h.offset * a.scale
            assert all(v <= c for v in values) or all(v >= c for v in values)
            assert any(v == c for v in values)


def test_specialized_vs_general_hull_paths():
    # planar shadows (rank 2): the facets must agree with brute-force edge checks
    rng = random.Random(15)
    e3 = Direction.of((0, 0, 1))
    for _ in range(15):
        a = pset(3, {tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(rng.randint(4, 12))})
        shadow = sorted({project_along(p, e3) for p in a.points})
        if len(shadow) < 3:
            continue
        got = supporting_hyperplanes(a, e3)
        brute = set()
        for qa, qb in itertools.combinations(shadow, 2):
            delta = tuple(x - y for x, y in zip(qb, qa))
            normal = (-delta[1], delta[0], Fraction(0))
            if not any(normal):
                continue
            c0 = sum(n * c for n, c in zip(normal, qa))
            values = [sum(n * c for n, c in zip(normal, q)) for q in shadow]
            if all(v <= c0 for v in values) or all(v >= c0 for v in values):
                brute.add(Hyperplane.of(normal, c0))
        if affine_dimension(PointSet.of(3, shadow)) == 2:
            assert set(got) == brute


def test_supporting_hyperplanes_4d_against_oracle():
    # rank-3 shadows: the facets vs a direct ambient-kernel oracle
    from sumlab.linalg import affine_basis, affine_rank as arank, kernel_vector

    rng = random.Random(91)
    e4 = Direction.of((0, 0, 0, 1))
    checked = 0
    for _ in range(12):
        pts = set()
        while len(pts) < rng.randint(6, 12):
            pts.add(tuple(rng.randint(0, 3) for _ in range(4)))
        a = pset(4, pts)
        shadow = sorted({project_along(p, e4) for p in a.points})
        if len(affine_basis(shadow)) != 3:
            continue
        got = set(supporting_hyperplanes(a, e4))
        brute = set()
        for sub in itertools.combinations(shadow, 3):
            if arank(sub) != 2:
                continue
            d1 = tuple(x - y for x, y in zip(sub[1], sub[0]))
            d2 = tuple(x - y for x, y in zip(sub[2], sub[0]))
            normal = kernel_vector([d1, d2, (0, 0, 0, 1)], 4)
            if normal is None or not any(normal):
                continue
            c0 = sum(x * y for x, y in zip(normal, sub[0]))
            values = [sum(x * y for x, y in zip(normal, q)) for q in shadow]
            if all(v <= c0 for v in values) or all(v >= c0 for v in values):
                brute.add(Hyperplane.of(normal, c0))
        assert got == brute
        checked += 1
    assert checked >= 5


def test_hyperplane_slices_interior_offset_ascends():
    grid = pset(2, [(i, j) for i in range(3) for j in range(3)])
    slices = hyperplane_slices(grid, Hyperplane.of((0, 1), 1))
    assert [s[0].offset for s in slices] == [0, 1, 2]


def test_major_hyperplane_tiebreak():
    slab = pset(2, [(i, j) for i in range(3) for j in range(2)])
    h = major_hyperplane(slab, E1)
    assert h == Hyperplane.of((0, 1), 0)
    a = pset(2, [(0, 0), (1, 0), (2, 0), (0, 1)])
    assert major_hyperplane(a, E1) == Hyperplane.of((0, 1), 0)
    s24 = stanchescu_dk(2, 4)
    h2 = major_hyperplane(s24, E1)
    assert sum(1 for p in s24.ints if sum(map(mul, h2.normal, p)) == h2.offset * s24.scale) == 4


def test_major_hyperplane_scales_the_set_once(monkeypatch):
    # the shadow is built once, by the supporting_hyperplanes call the incidences are counted over
    import sumlab.incidence

    real = sumlab.incidence._shadow
    calls = []
    monkeypatch.setattr(sumlab.incidence, "_shadow", lambda *args: calls.append(args) or real(*args))
    a = pset(3, [(0, 0, 0), (Fraction(1, 2), 0, 0), (0, 1, 0), (0, 0, Fraction(2, 3)), (1, 1, 1)])
    h = major_hyperplane(a, Direction.of((0, 0, 1)))
    assert len(calls) == 1
    assert sum(1 for p in a.ints if sum(map(mul, h.normal, p)) == h.offset * a.scale) == 3


def test_major_slice_at_least_last_slice():
    rng = random.Random(16)
    for _ in range(25):
        d = rng.choice((2, 3))
        a = pset(d, {tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(3, 10))})
        vec = tuple(rng.randint(-2, 2) for _ in range(d))
        if not any(vec):
            vec = (1,) + (0,) * (d - 1)
        l = Direction.of(vec)
        if len({project_along(p, l) for p in a.points}) < 2:
            continue
        h = major_hyperplane(a, l)
        slices = hyperplane_slices(a, h)
        assert len(slices[0][1]) >= len(slices[-1][1])
        assert sum(len(s) for _, s in slices) == len(a)


def test_hyperplane_slices_grid_and_order():
    grid = pset(2, [(i, j) for i in range(3) for j in range(3)])
    slices = hyperplane_slices(grid, Hyperplane.of((0, 1), 0))
    assert [(s[0].offset, len(s[1])) for s in slices] == [(0, 3), (1, 3), (2, 3)]
    # supporting from above: order proceeds downward into the set
    upper = hyperplane_slices(grid, Hyperplane.of((0, 1), 2))
    assert [s[0].offset for s in upper] == [2, 1, 0]


def test_hyperplane_slices_whole_set_on_plane():
    flat = pset(2, [(0, 1), (3, 1)])
    slices = hyperplane_slices(flat, Hyperplane.of((0, 1), 1))
    assert len(slices) == 1 and len(slices[0][1]) == 2


def test_stanchescu_32_slices():
    a = stanchescu_dk(3, 2)
    h = major_hyperplane(a, Direction.of((0, 1, 0)))
    slices = hyperplane_slices(a, h)
    assert [len(s) for _, s in slices] == [4, 4]


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: line_partition(PointSet.of(2, []), E2), "empty set", id="partition-empty"),
        pytest.param(
            lambda: line_partition(pset(3, [(0, 0, 0)]), E1), "direction dimension mismatch", id="partition-dim"
        ),
        pytest.param(lambda: supporting_hyperplanes(PointSet.of(2, []), E2), "empty set", id="supporting-empty"),
        pytest.param(
            lambda: supporting_hyperplanes(pset(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)]), E1),
            "direction dimension mismatch",
            id="supporting-dim",
        ),
        pytest.param(lambda: min_line_cover(pset(2, [(0, 0)])), "need at least two points", id="cover-one-point"),
        pytest.param(
            lambda: hyperplane_slices(PointSet.of(2, []), Hyperplane.of((0, 1), 0)), "empty set", id="slices-empty"
        ),
        pytest.param(
            lambda: hyperplane_slices(pset(3, [(0, 0, 0)]), Hyperplane.of((0, 1), 0)),
            "hyperplane dimension mismatch",
            id="slices-dim",
        ),
        # a raw direction that Direction.of would change would compress unlike its own JSON
        pytest.param(lambda: Direction((0, -1)), "raw direction (0, -1) is not", id="raw-direction-sign"),
        pytest.param(lambda: Direction((0, 2)), "raw direction (0, 2) is not", id="raw-direction-gcd"),
        pytest.param(lambda: Direction((0, 0)), "zero vector has no direction", id="raw-direction-zero"),
        pytest.param(
            lambda: Direction((Fraction(1, 2), 1)), "raw direction (Fraction(1, 2), 1) is not",
            id="raw-direction-fraction",
        ),
        pytest.param(lambda: Direction((True, False)), "raw direction (True, False) is not", id="raw-direction-bool"),
        pytest.param(lambda: Direction([0, 1]), "raw direction [0, 1] is not", id="raw-direction-list"),
        # a raw hyperplane follows the same type rule, so no float reaches compress_pair or the slices
        pytest.param(
            lambda: Hyperplane((1.0, 0.0), Fraction(0)), "raw hyperplane normal (1.0, 0.0) is not",
            id="raw-hyperplane-float-normal",
        ),
        pytest.param(lambda: Hyperplane((0, 1), 0.1), "raw hyperplane offset 0.1 is not", id="raw-hyperplane-float"),
        pytest.param(lambda: Hyperplane((0, 1), "1"), "raw hyperplane offset '1' is not", id="raw-hyperplane-text"),
        pytest.param(lambda: Hyperplane((0, 0), 0), "raw hyperplane normal (0, 0) is not", id="raw-hyperplane-zero"),
        pytest.param(lambda: Hyperplane((), 0), "raw hyperplane normal () is not", id="raw-hyperplane-empty"),
        pytest.param(
            lambda: Hyperplane((True, False), 0), "raw hyperplane normal (True, False) is not", id="raw-hyperplane-bool"
        ),
        pytest.param(lambda: Hyperplane([0, 1], 0), "raw hyperplane normal [0, 1] is not", id="raw-hyperplane-list"),
    ],
)
def test_incidence_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_raw_hyperplane_checks_types_only():
    # the normal need not be primitive or sign-canonical, as `Hyperplane.of` makes it
    assert Hyperplane((0, -2), 3).normal == (0, -2)
    assert Hyperplane((1, 1), Fraction(1, 2)).offset == Fraction(1, 2)


def _answer(query, *args):
    """query(*args), or the message of the ValueError it raises."""
    try:
        return query(*args)
    except ValueError as e:
        return f"ValueError: {e}"


@st.composite
def _memo_cases(draw):
    """(d, pts, directions, normals, offset): a point list in d = 2..4 with coordinates in halves,
    two nonzero direction vectors and two nonzero normals."""
    d = draw(st.integers(2, 4))
    point = st.tuples(*[st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))] * d)
    vec = st.tuples(*[st.integers(-2, 2)] * d).filter(any)
    pts = draw(st.lists(point, min_size=1, max_size=8, unique=True))
    return d, pts, draw(st.lists(vec, min_size=2, max_size=2)), draw(st.lists(vec, min_size=2, max_size=2)), draw(point)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_memo_cases())
def test_memoised_incidence_facts_match_a_fresh_set(case):
    d, pts, vecs, normals, p = case
    a = PointSet.of(d, pts)
    assert _answer(min_line_cover, a) == _answer(min_line_cover, a) == _answer(min_line_cover, PointSet.of(d, pts))
    # each direction and each hyperplane gets its own answer, asked before or after the others
    for query, args in (
        (supporting_hyperplanes, [Direction.of(v) for v in vecs]),
        (major_hyperplane, [Direction.of(v) for v in vecs]),
        (hyperplane_slices, [Hyperplane.of(n, sum(x * c for x, c in zip(n, p))) for n in normals]),
    ):
        for arg in [*args, *reversed(args)]:
            assert _answer(query, a, arg) == _answer(query, PointSet.of(d, pts), arg), (query.__name__, arg)


def test_mutating_a_returned_list_leaves_the_next_answer_alone():
    a = stanchescu_dk(3, 4)
    l = min_line_cover(a)[0]
    hs = supporting_hyperplanes(a, l)
    expected = list(hs)
    hs.clear()
    assert supporting_hyperplanes(a, l) == expected
    slices = hyperplane_slices(a, expected[0])
    kept = list(slices)
    slices.reverse()
    slices.append(slices[0])
    assert hyperplane_slices(a, expected[0]) == kept
    assert supporting_hyperplanes(a, l) is not supporting_hyperplanes(a, l)


def test_refusals_repeat_on_every_call():
    point = pset(2, [(1, 2)])
    line = pset(3, [(0, 0, 0), (1, 1, 1), (2, 2, 2)])
    along = Direction.of((1, 1, 1))
    for _ in range(3):
        with pytest.raises(ValueError, match="need at least two points"):
            min_line_cover(point)
        with pytest.raises(ValueError, match="single point"):
            supporting_hyperplanes(line, along)
        with pytest.raises(ValueError, match="single point"):
            major_hyperplane(line, along)


def test_a_direction_or_hyperplane_of_the_wrong_dimension_is_refused_after_a_memo_hit():
    a = stanchescu_dk(3, 3)
    l = min_line_cover(a)[0]
    h = major_hyperplane(a, l)
    supporting_hyperplanes(a, l), hyperplane_slices(a, h)
    for _ in range(2):
        for query in (supporting_hyperplanes, major_hyperplane):
            with pytest.raises(ValueError, match="direction dimension mismatch"):
                query(a, Direction.of((*l.vec, 1)))
        with pytest.raises(ValueError, match="hyperplane dimension mismatch"):
            hyperplane_slices(a, Hyperplane.of((*h.normal, 1), h.offset))
        assert major_hyperplane(a, l) == h


def test_one_diagnosis_and_its_claims_walk_the_shadow_facets_once(monkeypatch):
    # the queries of one set share its cover direction, major hyperplane and slices
    import sumlab.incidence

    calls = []
    for name in ("_min_line_cover", "_supporting_hyperplanes", "_hyperplane_slices"):
        real = getattr(sumlab.incidence, name)
        monkeypatch.setattr(sumlab.incidence, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    a = stanchescu_dk(3, 6)
    l = min_line_cover(a)[0]
    h = major_hyperplane(a, l)
    supporting_hyperplanes(a, l), hyperplane_slices(a, h), structure_diagnose(a)
    assert check_claim("TWOPLANES_1", a, None, l).verdict == "CONSISTENT"
    check_claim("DLINES", a)
    # the second cover is the top slice's, which the diagnosis and TWOPLANES_1 share
    assert calls == ["_min_line_cover", "_supporting_hyperplanes", "_hyperplane_slices", "_min_line_cover"]


def test_one_facet_enumeration_solves_each_face_once(monkeypatch):
    # a d = 5 set of 6 points whose shadow has 9 facets and 43 faces of rank 1 or more; each ridge
    # is a face of two facets and each edge of many, and the per-call table solves each once
    import sumlab.incidence

    solved = []
    real = sumlab.incidence._hull
    monkeypatch.setattr(sumlab.incidence, "_hull", lambda pts, *args: solved.append(pts) or real(pts, *args))
    a = pset(5, [(1, -2, -2, 3, -2), (3, 1, 0, -3, -3), (-1, 1, 0, -3, -1), (1, -1, 2, -3, 1), (-1, 3, 1, -2, 3),
                 (1, 1, 1, -1, 0)])
    assert len(supporting_hyperplanes(a, Direction.of((-2, 2, 1, 0, 2)))) == 9
    assert len(solved) == len(set(solved)) == 43


@pytest.mark.parametrize("case", ["d5-shadow", "d4-turning"])
def test_facets_rank_the_first_chain_once(monkeypatch, case):
    # `_facets` finds the first chain once and ranks its input once, and `_hull` enters every face
    # through a facet it is handed, so it ranks nothing; the first chain of both sets turns
    import sumlab.incidence as incidence

    if case == "d5-shadow":
        a = pset(5, [(1, -2, -2, 3, -2), (3, 1, 0, -3, -3), (-1, 1, 0, -3, -1), (1, -1, 2, -3, 1),
                     (-1, 3, 1, -2, 3), (1, 1, 1, -1, 0)])
        pts = sorted(set(incidence._shadow(a, (-2, 2, 1, 0, 2))[1]))
    else:
        pts = [(0, 0, 3, 1), (0, 3, 0, 2), (0, 3, 1, 0), (1, 3, 0, 0), (2, 0, 3, 1), (2, 2, 0, 3), (3, 1, 0, 2)]
    expected = incidence._facets(pts)
    calls, flags, turns, depth = [], [], [], [0]
    real_basis, real_hull, real_turn = incidence.affine_basis, incidence._hull, incidence._turn

    def basis(points):
        calls.append((tuple(points), depth[0]))
        return real_basis(points)

    def hull(pts, rank, flag, solved):
        flags.append(flag)
        depth[0] += 1
        try:
            return real_hull(pts, rank, flag, solved)
        finally:
            depth[0] -= 1

    def turn(*args):
        turns.append(depth[0])
        return real_turn(*args)

    monkeypatch.setattr(incidence, "affine_basis", basis)
    monkeypatch.setattr(incidence, "_hull", hull)
    monkeypatch.setattr(incidence, "_turn", turn)
    assert incidence._facets(pts) == expected
    assert all(inside == 0 for _, inside in calls)
    assert [face for face, _ in calls].count(tuple(pts)) == 1
    # the flag runs from the points down to an edge, and the search ranks the points, then each face
    # it meets once: one per turn and one per level's facet, whose basis the next level starts from
    assert len(flags[0]) == len(real_basis(pts)) - 1
    searched = turns.count(0)
    assert searched > 0 and len(calls) == 1 + len(flags[0]) + searched


@pytest.mark.parametrize("fault", ["flipped", "shifted"])
def test_a_turn_off_the_hull_is_an_internal_error(monkeypatch, fault):
    # every facet's heights are checked, so a wrong turn raises RuntimeError (exit 4 at the CLI)
    # in place of returning extra facets or reading as bad input
    import sumlab.incidence as incidence

    real = incidence._turn

    def turn(*args):
        n, c = real(*args)
        return (tuple(-x for x in n), -c) if fault == "flipped" else (n, c - 1)

    monkeypatch.setattr(incidence, "_turn", turn)
    with pytest.raises(RuntimeError, match="hull fault"):
        incidence._facets(sorted(itertools.product((0, 1), repeat=3)))
