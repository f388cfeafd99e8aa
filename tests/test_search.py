import json
import random

import pytest

from sumlab import (
    BudgetExceededError,
    PointSet,
    SearchSpec,
    canonical_form,
    difference_set,
    exhaustive_min_diff,
    random_probe,
)
from sumlab.search import EXHAUSTIVE, RANDOM, diff_count, lattice_points
from conftest import oracle_diff_count


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
    assert diff_count(pts) == diff_count(canon) == oracle_diff_count(canon)


def test_canonical_group_preserves_difference_count():
    rng = random.Random(41)
    for _ in range(50):
        d = rng.choice((2, 3))
        pts = list({tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(2, 7))})
        perm = list(range(d))
        rng.shuffle(perm)
        shift = tuple(rng.randint(-3, 3) for _ in range(d))
        moved = [tuple(p[i] + shift[i] for i in perm) for p in pts]
        assert diff_count(pts) == diff_count(moved) == oracle_diff_count(moved)
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


def test_exhaustive_matches_brute_force():
    # independent oracle: direct enumeration over all subsets
    import itertools

    s = spec(n=3, box=(2, 2), require_full_dim=True)
    pts = lattice_points(s.box)
    best = None
    for subset in itertools.combinations(pts, 3):
        from sumlab.linalg import affine_rank

        if affine_rank(subset) != 2:
            continue
        value = oracle_diff_count(subset)
        best = value if best is None else min(best, value)
    assert exhaustive_min_diff(s).best_value == best


def test_exhaustive_threads_merge():
    s = spec(require_full_dim=True)
    sequential = exhaustive_min_diff(s, threads=1)
    parallel = exhaustive_min_diff(s, threads=2)
    assert sequential.best_value == parallel.best_value
    assert sequential.witnesses == parallel.witnesses


@pytest.mark.parametrize("threads", [0, -1])
def test_exhaustive_rejects_threads_below_one(threads):
    with pytest.raises(ValueError, match="threads"):
        exhaustive_min_diff(spec(), threads=threads)


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
    # every point of the box lies on one line, so no full-dimensional subset exists
    s = SearchSpec(2, 3, (0, 5), EXHAUSTIVE, seed=0, require_full_dim=True)
    with pytest.raises(ValueError):
        exhaustive_min_diff(s)


def test_planar_claims_validated_upfront():
    with pytest.raises(ValueError):
        SearchSpec(3, 5, (3, 3, 3), RANDOM, seed=0, trials=5, claim="GS_LINES")
    # claims stated for d >= 2 are refused at d = 1 before any trial runs, in both modes
    for claim in ("MAIN", "STAN_DOUBLING", "ASYM_THM", "DLINES", "TWOPLANES_1", "LINES_4D"):
        for mode in (RANDOM, EXHAUSTIVE):
            with pytest.raises(ValueError, match=f"{claim} needs ambient dimension >= 2; got d = 1"):
                SearchSpec(1, 3, (4,), mode, seed=0, trials=5, claim=claim)
            SearchSpec(2, 3, (4, 4), mode, seed=0, trials=5, claim=claim)


def test_random_probe_deterministic():
    s = SearchSpec(3, 8, (4, 4, 4), RANDOM, seed=99, trials=50, require_full_dim=True)
    r1 = random_probe(s)
    r2 = random_probe(s)
    assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())
    assert r1.candidates_examined == 50


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
