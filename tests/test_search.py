import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumlab import (
    BudgetExceededError,
    PointSet,
    SearchSpec,
    canonical_form,
    difference_set,
    exhaustive_min_diff,
    random_probe,
)
from sumlab import search
from sumlab.cli import cli_dispatch
from sumlab.search import EXHAUSTIVE, RANDOM, _sample_points, lattice_points
from conftest import _fraction_rref, oracle_diff_count


def spec(**kw):
    base = dict(d=2, n=4, box=(3, 3), mode=EXHAUSTIVE, seed=0)
    base.update(kw)
    return SearchSpec(**base)


def test_canonical_form_translation_and_permutation():
    pts = [(2, 3), (3, 3), (2, 4)]
    canon = canonical_form(pts)
    assert canon == ((0, 0), (0, 1), (1, 0))
    assert min(c[0] for c in canon) == 0 and min(c[1] for c in canon) == 0
    # |A - A| invariant under the canonical group
    assert oracle_diff_count(pts) == oracle_diff_count(canon)


def test_canonical_group_preserves_difference_count():
    rng = random.Random(41)
    for _ in range(50):
        d = rng.choice((2, 3))
        pts = list({tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(2, 7))})
        perm = list(range(d))
        rng.shuffle(perm)
        shift = tuple(rng.randint(-3, 3) for _ in range(d))
        moved = [tuple(p[i] + shift[i] for i in perm) for p in pts]
        assert oracle_diff_count(pts) == oracle_diff_count(moved)
        assert canonical_form(pts) == canonical_form(moved)


def test_exhaustive_fixture_d2_n4():
    result = exhaustive_min_diff(spec(require_full_dim=True))
    assert result.best_value == 9
    unit_square = PointSet.of(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert unit_square in result.witnesses
    for w in result.witnesses:
        assert len(difference_set(w, w)) == 9


def test_exhaustive_fixture_d2_n3():
    result = exhaustive_min_diff(spec(n=3, box=(2, 2), require_full_dim=True))
    assert result.best_value == 7


def test_exhaustive_fixture_d1():
    result = exhaustive_min_diff(spec(d=1, n=3, box=(4,)))
    assert result.best_value == 5


def test_pruning_parity():
    for kw in (dict(require_full_dim=True), dict(n=3, box=(2, 2)), dict(d=1, n=4, box=(5,))):
        s = spec(**kw)
        with_prune = exhaustive_min_diff(s, prune=True)
        without = exhaustive_min_diff(s, prune=False)
        assert with_prune.best_value == without.best_value
        assert with_prune.witnesses == without.witnesses
        assert with_prune.candidates_examined <= without.candidates_examined


def _translate_permute_canonical(points, permute):
    """Least sorted image of the points under every axis permutation (if permute),
    each followed by the translation taking every coordinate's minimum to 0."""
    d = len(points[0])
    images = []
    for perm in itertools.permutations(range(d)) if permute else [tuple(range(d))]:
        moved = [tuple(p[i] for i in perm) for p in points]
        low = [min(col) for col in zip(*moved)]
        images.append(tuple(sorted(tuple(c - m for c, m in zip(p, low)) for p in moved)))
    return min(images)


def _affine_rank(points):
    rows = [[Fraction(c - b) for c, b in zip(p, points[0])] for p in points[1:]]
    return len(_fraction_rref(rows)[1])


@pytest.mark.parametrize(
    "d, n, box, full",
    [
        (1, 4, (6,), False),
        (2, 3, (2, 2), True),
        (2, 4, (3, 3), False),
        (2, 4, (2, 4), True),
        (2, 3, (0, 6), False),
        (3, 4, (1, 1, 2), True),
        (3, 4, (0, 2, 3), False),
        (2, 4, (1, 5), True),
        (1, 1, (3,), False),
    ],
    ids=["d1", "d2-full", "d2", "d2-nonuniform", "d2-degenerate", "d3", "d3-flat-axis", "d2-long-axis", "n1"],
)
def test_exhaustive_matches_brute_force(d, n, box, full, monkeypatch):
    # independent oracle: every n-subset of the box, Fraction difference counts
    best, minimisers = None, set()
    for subset in itertools.combinations(itertools.product(*(range(m + 1) for m in box)), n):
        if full and _affine_rank(subset) != d:
            continue
        value = oracle_diff_count(subset)
        if best is None or value < best:
            best, minimisers = value, set()
        if value == best:
            minimisers.add(_translate_permute_canonical(subset, len(set(box)) == 1))
    # a cap of 1 or 3 fills the witness list above the final minimum on most specs, so the tie
    # cut tightens early and must loosen again when the minimum falls
    for cap in (32, 1, 3):
        monkeypatch.setattr(search, "WITNESS_CAP", cap)
        for prune in (True, False):
            result = exhaustive_min_diff(SearchSpec(d, n, box, EXHAUSTIVE, seed=0, require_full_dim=full), prune=prune)
            assert result.best_value == best
            assert [w.points for w in result.witnesses] == sorted(minimisers)[:cap]


@st.composite
def _walk_cases(draw):
    """A small exhaustive spec: d = 1..4, a uniform box or one with independent extents (zero
    included), n small enough that every n-subset can be listed."""
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        box = (draw(st.integers(1, (6, 3, 2, 1)[d - 1])),) * d
    else:
        box = tuple(draw(st.integers(0, (6, 3, 2, 1)[d - 1])) for _ in range(d))
    volume = len(lattice_points(box))
    full = draw(st.booleans()) and volume > d + 1
    low = d + 1 if full else 1
    sizes = [n for n in range(low, volume + 1) if math.comb(volume, n) <= 800]
    return d, draw(st.sampled_from(sizes)), box, full


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_walk_cases())
@example((2, 3, (0, 4), False))
@example((3, 4, (1, 0, 2), True))
@example((4, 3, (1, 1, 1, 1), False))
@example((4, 5, (1, 1, 0, 1), True))
def test_exhaustive_leaf_matches_subset_oracle(case):
    # every n-subset of the box, kept when it is its own canonical_form and, if asked, spans
    # the space: the walk's index test must keep exactly these, with and without the cuts
    d, n, box, full = case
    uniform = len(set(box)) == 1
    best, minimisers = None, []
    for subset in itertools.combinations(lattice_points(box), n):
        if canonical_form(subset, uniform) != subset or full and _affine_rank(subset) != d:
            continue
        value = oracle_diff_count(subset)
        if best is None or value < best:
            best, minimisers = value, []
        if value == best:
            minimisers.append(subset)
    if best is None:
        # no subset spans the space exactly when an axis is flat, and the spec refuses that box
        with pytest.raises(ValueError, match="a flat box has no full-dimensional subset"):
            SearchSpec(d, n, box, EXHAUSTIVE, seed=0, require_full_dim=full)
        return
    s = SearchSpec(d, n, box, EXHAUSTIVE, seed=0, require_full_dim=full)
    for prune in (True, False):
        result = exhaustive_min_diff(s, prune=prune)
        assert result.best_value == best
        assert [w.points for w in result.witnesses] == minimisers[:32]


def test_exhaustive_ranks_only_canonical_leaves(monkeypatch):
    # with the cuts off every 5-subset of {0,1,2}^3 is a leaf, and 10,024 of the 80,730 equal
    # their canonical_form (counted by listing them); only those may be ranked, each once, and
    # then each witness once more in its re-check
    s = SearchSpec(3, 5, (2, 2, 2), EXHAUSTIVE, seed=0, require_full_dim=True)
    ranked = []
    rank = search.affine_rank
    monkeypatch.setattr(search, "affine_rank", lambda points: ranked.append(tuple(points)) or rank(points))
    result = exhaustive_min_diff(s, prune=False)
    assert result.candidates_examined == math.comb(27, 5)
    leaves, rechecks = ranked[: -len(result.witnesses)], ranked[-len(result.witnesses) :]
    assert len(leaves) == len(set(leaves)) == 10024
    assert all(canonical_form(points) == points for points in leaves)
    assert rechecks == [w.ints for w in result.witnesses]


def test_exhaustive_claim_leaf_is_ranked_once(monkeypatch):
    # with a claim the leaf's set is built before its rank test, so check_claim's rank of that
    # set is a memo hit: one elimination per ranked leaf (1,491 here), and one per witness in
    # the result's re-check
    import sumlab.linalg
    import sumlab.pointset

    calls = []
    for module, name in ((sumlab.linalg, "_eliminate"), (sumlab.pointset, "affine_rank")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    result = exhaustive_min_diff(SearchSpec(2, 5, (3, 3), EXHAUSTIVE, seed=0, claim="MAIN", require_full_dim=True))
    assert calls.count("affine_rank") == 1491
    assert calls.count("_eliminate") == 1491 + len(result.witnesses)


@pytest.mark.parametrize(
    "d, n, box, full, best, witnesses, examined_pruned, examined_unpruned",
    [
        (1, 4, (6,), False, 7, [((0,), (1,), (2,), (3,)), ((0,), (2,), (4,), (6,))], 2, 35),
        (
            2, 4, (1, 2), True, 9,
            [
                ((0, 0), (0, 1), (1, 0), (1, 1)),
                ((0, 0), (0, 1), (1, 1), (1, 2)),
                ((0, 0), (0, 2), (1, 0), (1, 2)),
                ((0, 1), (0, 2), (1, 0), (1, 1)),
            ],
            8, 15,
        ),
        (
            3, 4, (1, 1, 1), False, 9,
            [
                ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)),
                ((0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)),
                ((0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)),
            ],
            11, 70,
        ),
        # 32 witnesses fill the list at the minimum, so every later tie is cut
        (
            2, 5, (3, 3), True, 13,
            [
                ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1)),
                ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2)),
                ((0, 0), (0, 1), (0, 2), (1, 2), (1, 3)),
                ((0, 0), (0, 1), (0, 2), (2, 0), (2, 1)),
                ((0, 0), (0, 1), (0, 2), (2, 1), (2, 2)),
                ((0, 0), (0, 1), (0, 2), (2, 2), (2, 3)),
                ((0, 0), (0, 1), (0, 2), (3, 0), (3, 1)),
                ((0, 0), (0, 1), (0, 2), (3, 1), (3, 2)),
                ((0, 0), (0, 1), (0, 2), (3, 2), (3, 3)),
                ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2)),
                ((0, 0), (0, 1), (1, 1), (1, 2), (1, 3)),
                ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2)),
                ((0, 0), (0, 1), (1, 1), (1, 2), (2, 3)),
                ((0, 0), (0, 1), (1, 1), (2, 1), (2, 2)),
                ((0, 0), (0, 1), (2, 0), (2, 1), (2, 2)),
                ((0, 0), (0, 1), (2, 1), (2, 2), (2, 3)),
                ((0, 0), (0, 1), (3, 0), (3, 1), (3, 2)),
                ((0, 0), (0, 1), (3, 1), (3, 2), (3, 3)),
                ((0, 0), (0, 2), (1, 1), (1, 3), (2, 2)),
                ((0, 0), (0, 2), (1, 1), (2, 0), (2, 2)),
                ((0, 0), (1, 1), (1, 2), (2, 2), (2, 3)),
                ((0, 1), (0, 2), (0, 3), (1, 0), (1, 1)),
                ((0, 1), (0, 2), (0, 3), (2, 0), (2, 1)),
                ((0, 1), (0, 2), (0, 3), (3, 0), (3, 1)),
                ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2)),
                ((0, 1), (0, 2), (1, 0), (1, 1), (2, 0)),
                ((0, 1), (0, 2), (1, 1), (2, 0), (2, 1)),
                ((0, 1), (0, 2), (2, 0), (2, 1), (2, 2)),
                ((0, 1), (0, 2), (3, 0), (3, 1), (3, 2)),
                ((0, 1), (0, 3), (1, 0), (1, 2), (2, 1)),
                ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1)),
                ((0, 1), (1, 0), (1, 2), (2, 1), (2, 3)),
            ],
            82, 4368,
        ),
    ],
    ids=["d1", "d2-full", "d3", "d2-witness-cap"],
)
def test_exhaustive_pinned_walk(d, n, box, full, best, witnesses, examined_pruned, examined_unpruned):
    # frozen from the sequential walk: the minimum, every witness and the leaf count, which
    # with pruning on reflects the first-point, look-ahead and tie cuts
    s = SearchSpec(d, n, box, EXHAUSTIVE, seed=0, require_full_dim=full)
    for prune, examined in ((True, examined_pruned), (False, examined_unpruned)):
        result = exhaustive_min_diff(s, prune=prune)
        assert result.best_value == best
        assert [w.points for w in result.witnesses] == witnesses
        assert result.candidates_examined == examined


@pytest.mark.parametrize("cap, examined", [(1, 2), (3, 6), (32, 82), (1000, 144)])
def test_tie_cut_follows_the_witness_cap(cap, examined, monkeypatch):
    # d=2 n=5 box 3 has 42 canonical witnesses at 13.  The walk reads WITNESS_CAP when it runs
    # and cuts every tie once it holds that many; a cap above 42 cuts none
    monkeypatch.setattr(search, "WITNESS_CAP", cap)
    result = exhaustive_min_diff(SearchSpec(2, 5, (3, 3), EXHAUSTIVE, seed=0, require_full_dim=True))
    assert (result.best_value, len(result.witnesses), result.candidates_examined) == (13, min(cap, 42), examined)


MINIMA = json.loads((Path(__file__).resolve().parents[1] / "sumbench" / "minima.json").read_text())


def _minima_spec(key):
    # keys read "d=2 n=5 box=3x3 full=1"
    d, n, box, full = re.fullmatch(r"d=(\d+) n=(\d+) box=([\dx]+) full=([01])", key).groups()
    return SearchSpec(int(d), int(n), tuple(map(int, box.split("x"))), EXHAUSTIVE, seed=0, require_full_dim=full == "1")


@pytest.mark.parametrize("key", sorted(MINIMA))
def test_exhaustive_minima_gate(key):
    # the committed minima table: pruning keeps the minimum and every witness, and only cuts candidates
    s = _minima_spec(key)
    pruned = exhaustive_min_diff(s, prune=True)
    full = exhaustive_min_diff(s, prune=False)
    assert pruned.best_value == full.best_value == MINIMA[key]
    assert [w.points for w in pruned.witnesses] == [w.points for w in full.witnesses]
    assert pruned.candidates_examined <= full.candidates_examined


@pytest.mark.parametrize("threads", [0, -1, 2])
def test_exhaustive_rejects_threads_other_than_one(threads):
    with pytest.raises(ValueError, match="one process"):
        exhaustive_min_diff(spec(), threads=threads)
    assert exhaustive_min_diff(spec(), threads=1).best_value == exhaustive_min_diff(spec()).best_value


BOXES = [(0,), (6,), (3, 0), (0, 2), (2, 3), (1, 0, 2), (2, 2, 2), (1, 2, 0, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("box", BOXES)
def test_box_codec_matches_product_and_divmod(box):
    # seeded reports depend on these exact points and draws: the sorted product lattice and the
    # divmod decoding of the same rng.sample are the reference
    assert lattice_points(box) == sorted(itertools.product(*(range(m + 1) for m in box)))
    volume = SearchSpec(len(box), 1, box, EXHAUSTIVE, seed=0).volume()
    assert volume == len(lattice_points(box))

    def reference(rng, count):
        points = []
        for idx in rng.sample(range(volume), count):
            coords = []
            for m in reversed(box):
                idx, c = divmod(idx, m + 1)
                coords.append(c)
            points.append(tuple(reversed(coords)))
        return points

    for seed in range(30):
        count = seed % volume + 1
        assert _sample_points(random.Random(seed), box, count) == reference(random.Random(seed), count)


def test_budget_guardrail():
    with pytest.raises(BudgetExceededError) as info:
        SearchSpec(2, 8, (9, 9), EXHAUSTIVE, seed=0, budget=10**6)
    assert info.value.count > 10**6


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(2, 3, (3,), EXHAUSTIVE, seed=0)  # box length mismatch
    with pytest.raises(ValueError):
        SearchSpec(2, 3, (3, 3), RANDOM, seed=0)  # trials missing
    with pytest.raises(ValueError):
        SearchSpec(2, 2, (3, 3), EXHAUSTIVE, seed=0, require_full_dim=True)  # n <= d
    with pytest.raises(ValueError):
        SearchSpec(2, 50, (3, 3), EXHAUSTIVE, seed=0)  # n > volume


def test_exhaustive_degenerate_box_with_full_dim():
    # every point of the box lies on one line, so no full-dimensional subset exists: the spec is
    # refused before any walk, in both modes
    message = "^box extent 0 on axis 0: a flat box has no full-dimensional subset$"
    for mode in (EXHAUSTIVE, RANDOM):
        with pytest.raises(ValueError, match=message):
            SearchSpec(2, 3, (0, 5), mode, seed=0, trials=5, require_full_dim=True)
    with pytest.raises(ValueError, match="box extent 0 on axis 2"):
        SearchSpec(3, 6, (4, 4, 0), EXHAUSTIVE, seed=0, require_full_dim=True)


def test_planar_claims_validated_upfront():
    with pytest.raises(ValueError):
        SearchSpec(3, 5, (3, 3, 3), RANDOM, seed=0, trials=5, claim="GS_LINES")
    # claims stated for d >= 2 are refused at d = 1 before any trial runs, in both modes
    for claim in ("MAIN", "STAN_DOUBLING", "ASYM_THM", "DLINES", "TWOPLANES_1", "LINES_4D"):
        for mode in (RANDOM, EXHAUSTIVE):
            with pytest.raises(ValueError, match=f"{claim} needs ambient dimension >= 2; got d = 1"):
                SearchSpec(1, 3, (4,), mode, seed=0, trials=5, claim=claim)
            # exhaustive mode generates A alone, so it refuses the claims that take l
            if mode == RANDOM or claim not in ("ASYM_THM", "TWOPLANES_1", "LINES_4D"):
                SearchSpec(2, 3, (4, 4), mode, seed=0, trials=5, claim=claim)


def test_asym_thm_past_d11_validated_upfront():
    # ASYM_THM's constant cannot be formed past d = 11, so no trial may start there, in either mode
    for mode in (RANDOM, EXHAUSTIVE):
        with pytest.raises(ValueError, match="computed for d <= 11 only; got d = 12$"):
            SearchSpec(12, 2, (1,) * 12, mode, seed=0, trials=5, claim="ASYM_THM")


def test_exhaustive_walk_too_deep_is_refused():
    # the budget admits comb(1501, 1500) subsets, but the walk recurses once per chosen point
    with pytest.raises(ValueError, match="cannot reach n = 1500$"):
        exhaustive_min_diff(SearchSpec(1, 1500, (1500,), EXHAUSTIVE, seed=0))


def test_random_probe_deterministic():
    s = SearchSpec(3, 8, (4, 4, 4), RANDOM, seed=99, trials=50, require_full_dim=True)
    r1 = random_probe(s)
    r2 = random_probe(s)
    assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())
    assert r1.candidates_examined == 50


def test_random_probe_canonicalises_only_final_ties(monkeypatch):
    # a trial that ties a running best that a later trial beats is never canonicalised: 1 call
    # here, where canonicalising every tie of the running best would make 6
    import sumlab.pointset

    calls, values = [], []
    real_count = sumlab.pointset._self_count
    monkeypatch.setattr(search, "canonical_form", lambda pts, u: calls.append(1) or canonical_form(pts, u))
    monkeypatch.setattr(sumlab.pointset, "_self_count", lambda *args: values.append(real_count(*args)) or values[-1])
    result = random_probe(SearchSpec(2, 6, (4, 4), RANDOM, seed=1, trials=40))
    assert len(values) == 40
    assert len(calls) == values.count(result.best_value) == len(result.witnesses)


def test_random_probe_seed_sensitivity():
    base = dict(d=2, n=6, box=(4, 4), mode=RANDOM, trials=40)
    r1 = random_probe(SearchSpec(seed=1, **base))
    r2 = random_probe(SearchSpec(seed=2, **base))
    assert json.dumps(r1.to_json()) != json.dumps(r2.to_json())


def test_random_probe_main_conjecture_no_violations():
    for d in (2, 3):
        s = SearchSpec(
            d, 9, (4,) * d, RANDOM, seed=7, trials=150,
            claim="MAIN", as_conjecture=True, require_full_dim=True,
        )
        result = random_probe(s)
        assert result.violations == ()


def test_random_probe_gs_lines_no_violations():
    s = SearchSpec(2, 7, (4, 4), RANDOM, seed=13, trials=150, claim="GS_LINES")
    assert random_probe(s).violations == ()


def test_random_probe_fhu_floor():
    # d = 2 exhaustive floor: every full-dimensional probe obeys 3n - 3
    s = SearchSpec(2, 6, (4, 4), RANDOM, seed=3, trials=100, require_full_dim=True)
    result = random_probe(s)
    assert result.best_value >= 3 * 6 - 3


CUBE4_MAIN = dict(d=4, n=16, box=(1, 1, 1, 1), seed=0, claim="MAIN", as_conjecture=True, require_full_dim=True)


def test_exhaustive_finds_the_4_cube_counterexample_to_main_as_conjecture():
    # {0,1}^4 has |A - A| = 81, 4/3 below the conjectured MAIN bound at d = 4, n = 16
    s = SearchSpec(mode=EXHAUSTIVE, **CUBE4_MAIN)
    result = exhaustive_min_diff(s)
    assert result.best_value == 81
    assert [(v.verdict, v.margin) for v in result.violations] == [("COUNTEREXAMPLE", Fraction(-4, 3))]
    assert exhaustive_min_diff(s, prune=False).candidates_examined == result.candidates_examined
    smaller = exhaustive_min_diff(SearchSpec(mode=EXHAUSTIVE, **{**CUBE4_MAIN, "n": 12}))
    assert smaller.violations == ()


def test_random_probe_records_each_violating_trial():
    result = random_probe(SearchSpec(mode=RANDOM, trials=2, **CUBE4_MAIN))
    assert [(v.verdict, v.margin) for v in result.violations] == [("COUNTEREXAMPLE", Fraction(-4, 3))] * 2


def test_random_probe_resamples_until_full_dimensional(monkeypatch):
    ranks = []
    real = search.affine_dimension
    monkeypatch.setattr(search, "affine_dimension", lambda a: ranks.append(a) or real(a))
    result = random_probe(SearchSpec(2, 3, (2, 1), RANDOM, seed=0, trials=40, require_full_dim=True))
    # 40 trials and 3 redraws of a collinear set
    assert result.candidates_examined == 40 and len(ranks) == 43
    assert all(real(w) == 2 for w in result.witnesses)
    with pytest.raises(ValueError, match="box extent 0 on axis 1"):
        SearchSpec(2, 3, (3, 0), RANDOM, seed=0, trials=40, require_full_dim=True)
    # a box that is not flat still gives up after 500 draws that all fail to span the space
    monkeypatch.setattr(search, "affine_dimension", lambda a: 0)
    with pytest.raises(ValueError, match="could not sample a full-dimensional subset"):
        random_probe(SearchSpec(2, 3, (3, 1), RANDOM, seed=0, trials=40, require_full_dim=True))


def test_random_probe_with_a_claim_ranks_and_counts_each_trial_once(monkeypatch):
    # a trial's set is built once, so check_claim's full-dimension test and |A - A| are memo hits,
    # and the result's re-check of its witnesses counts on plain tuples
    import sumlab.pointset

    draws, calls = [], []
    real_sample = search._sample_points
    monkeypatch.setattr(search, "_sample_points", lambda *args: draws.append(1) or real_sample(*args))
    for name in ("affine_rank", "_self_count", "_pairwise"):
        real = getattr(sumlab.pointset, name)
        monkeypatch.setattr(sumlab.pointset, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    for claim in (None, "MAIN"):
        draws.clear(), calls.clear()
        spec = SearchSpec(3, 4, (1, 1, 1), RANDOM, seed=5, trials=30, claim=claim, as_conjecture=True, require_full_dim=True)
        random_probe(spec)
        assert calls.count("affine_rank") == len(draws) > 30, claim
        assert calls.count("_self_count") == 30 and "_pairwise" not in calls, claim


def test_the_witness_recheck_does_not_read_the_count_it_checks(monkeypatch):
    # every trial's |A - A| through pointset is one short; the re-check on plain tuples sees it
    import sumlab.pointset

    real = sumlab.pointset._self_count
    monkeypatch.setattr(sumlab.pointset, "_self_count", lambda a, sign: real(a, sign) - 1)
    with pytest.raises(RuntimeError, match=r"does not have \|W - W\| = 8$"):
        random_probe(SearchSpec(2, 4, (2, 2), RANDOM, seed=0, trials=5))


def test_exhaustive_walk_without_a_witness_is_an_internal_fault(monkeypatch, capsys):
    # SearchSpec admits only boxes that hold a full-dimensional n-subset, so a walk that finds
    # none has a bug; it is not bad input, and the CLI exits 4 with the traceback
    monkeypatch.setattr(search, "affine_rank", lambda pts: 0)
    with pytest.raises(RuntimeError, match="no candidate subset satisfied the dimension requirement"):
        exhaustive_min_diff(SearchSpec(2, 3, (2, 2), EXHAUSTIVE, seed=0, require_full_dim=True))
    argv = ["search", "--mode", "exhaustive", "--d", "2", "--n", "3", "--box", "2", "--seed", "0", "--require-full-dim"]
    assert cli_dispatch(argv) == 4
    assert capsys.readouterr().err.endswith("RuntimeError: no candidate subset satisfied the dimension requirement\n")


def test_exhaustive_rejects_pair_claims():
    with pytest.raises(ValueError):
        exhaustive_min_diff(spec(claim="GS_LINES"))


def test_exhaustive_planar_floor_up_to_box5():
    # exact minima over full-dimensional subsets of [0,5]^2: the planar
    # difference bound 3n - 3 is met at n = 4 and 6 and parity-bumped at n = 5
    expected = {4: 9, 5: 13, 6: 15}
    for n, want in expected.items():
        s = SearchSpec(2, n, (5, 5), EXHAUSTIVE, seed=0, require_full_dim=True)
        result = exhaustive_min_diff(s)
        assert result.best_value == want
        assert result.best_value >= 3 * n - 3


def test_exhaustive_d3_bound():
    # cross-dimension sanity at a small scale: best over full-dim 5-subsets
    # of [0,1]^3 respects the proven d = 3 floor 4.5n - 9 (= 13.5, so >= 15
    # by parity; the unit cube only realises 17, frozen from brute force)
    s = SearchSpec(3, 5, (1, 1, 1), EXHAUSTIVE, seed=0, require_full_dim=True)
    result = exhaustive_min_diff(s)
    assert result.best_value >= 4.5 * 5 - 9
    assert result.best_value == 17


def test_result_json_shape():
    result = exhaustive_min_diff(spec(require_full_dim=True))
    blob = result.to_json()
    assert blob["best_value"] == 9
    assert blob["spec"]["mode"] == EXHAUSTIVE
    assert blob["seed"] == 0
    assert isinstance(blob["witnesses"], list)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: spec(d=0, box=()), "need d >= 1 and n >= 1", id="d0"),
        pytest.param(lambda: spec(mode="NOPE"), "unknown mode 'NOPE'", id="mode"),
        pytest.param(
            lambda: exhaustive_min_diff(spec(mode=RANDOM, trials=1)), "exhaustive_min_diff needs an EXHAUSTIVE spec",
            id="exhaustive-random-spec",
        ),
        pytest.param(lambda: random_probe(spec()), "random_probe needs a RANDOM spec", id="probe-exhaustive-spec"),
    ],
)
def test_search_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
