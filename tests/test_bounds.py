import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sumlab import (
    BELOW_GUARANTEED_SIZE,
    CLAIM_IDS,
    CONSISTENT,
    COUNTEREXAMPLE,
    VACUOUS,
    Direction,
    PointSet,
    SearchSpec,
    asym_error_constant,
    below_sqrt_threshold,
    bound_value,
    check_claim,
    dlines_general_position,
    freiman_aps,
    stan_doubling_tight,
    stanchescu_dk,
    structure_diagnose,
)
from sumlab.bounds import check_domain
from sumlab.search import EXHAUSTIVE, RANDOM
from conftest import pset

PLANAR = ("GS_LINES", "LEMMA_BASE_2D")
NEEDS_OPERANDS = ("RUZSA_ASYM", "GS_LINES", "LEMMA_BASE_2D", "ASYM_THM", "TWOPLANES_1", "LINES_4D")


def test_bound_values_spot():
    assert bound_value("FHU_DIFF", d=3, n=10) == 34
    assert bound_value("FREIMAN_SUM", d=2, n=6) == 15
    assert bound_value("MAIN", d=4, n=100) == Fraction(1843, 3)
    assert bound_value("GS_LINES", n=9, r1=3, m=4, r2=2) == 16
    assert bound_value("RUZSA_ASYM", d=3, n=10, m=4) == 16
    assert bound_value("DLINES", d=3, n=6) == 21
    assert bound_value("STAN_DOUBLING", d=3, n=13) == 48
    assert bound_value("TWOPLANES_1", d=3, n=8, a1=4) == 27
    assert bound_value("LINES_4D", d=2, n=16) == 45
    assert bound_value("LINES_4D", d=2, n=16, eps=Fraction(1, 10), c_d=2) == Fraction(16 * 31, 10) - 2


def test_asym_error_constant():
    assert asym_error_constant(2) == 16
    assert asym_error_constant(3) == 15625
    with pytest.raises(ValueError, match="ASYM_THM needs ambient dimension >= 2; got d = 1"):
        asym_error_constant(1)
    assert len(str(asym_error_constant(11))) == 2280
    # (d+2)^(2^d - 2) at d = 12 has 4,693 digits, past CPython's int-to-text limit
    with pytest.raises(ValueError, match="computed for d <= 11 only; got d = 12$"):
        asym_error_constant(12)


@pytest.mark.parametrize("given, missing", [(dict(eps=Fraction(1, 2)), "c_d"), (dict(c_d=3), "eps")])
def test_lines_4d_refuses_half_of_its_constant_pair(given, missing):
    with pytest.raises(ValueError, match=f"LINES_4D takes eps and c_d together; missing {missing}$"):
        bound_value("LINES_4D", d=3, n=10, **given)


@pytest.mark.parametrize(
    "claim, params, name, least",
    [
        ("GS_LINES", dict(n=4, r1=0, m=2, r2=1), "r1", 1),
        ("GS_LINES", dict(n=4, r1=-1, m=2, r2=1), "r1", 1),
        ("GS_LINES", dict(n=4, r1=1, m=2, r2=0), "r2", 1),
        ("GS_LINES", dict(n=4, r1=1, m=0, r2=1), "m", 1),
        ("MAIN", dict(d=3, n=-5), "n", 1),
        ("FHU_DIFF", dict(d=2, n=0), "n", 1),
        ("RUZSA_ASYM", dict(d=2, n=3, m=-1), "m", 1),
        ("TWOPLANES_1", dict(d=3, n=4, a1=-1), "a1", 0),
    ],
)
def test_bound_value_rejects_impossible_counts(claim, params, name, least):
    # GS_LINES divides by r1 and r2, and no other formula has a meaning at these counts either
    with pytest.raises(ValueError, match=f"^{claim} needs {name} >= {least}; got {name} = {params[name]}$"):
        bound_value(claim, **params)


def test_bound_value_takes_an_empty_first_slice():
    # check_claim passes a1 = 0 for TWOPLANES_1 when A has no first slice
    assert bound_value("TWOPLANES_1", d=3, n=4, a1=0) == 7


def test_bound_value_missing_params():
    with pytest.raises(ValueError):
        bound_value("MAIN", d=3)
    with pytest.raises(ValueError):
        bound_value("NOPE", d=3, n=4)
    # without d the claim name is checked on its own
    with pytest.raises(ValueError, match="^unknown claim 'NOPE'$"):
        bound_value("NOPE", n=3)


@pytest.mark.parametrize(
    "claim, params, low",
    [
        ("TWOPLANES_1", dict(d=1, n=5, a1=2), 2),
        ("DLINES", dict(d=0, n=5), 2),
        ("LINES_4D", dict(d=1, n=5, eps=Fraction(1, 2), c_d=3), 2),
        ("STAN_DOUBLING", dict(d=0, n=5), 2),
        ("FREIMAN_SUM", dict(d=-3, n=5), 1),
        ("RUZSA_ASYM", dict(d=0, n=5, m=2), 1),
    ],
    ids=["TWOPLANES_1-d1", "DLINES-d0", "LINES_4D-d1", "STAN_DOUBLING-d0", "FREIMAN_SUM-d-3", "RUZSA_ASYM-d0"],
)
def test_bound_value_rejects_low_dimension(claim, params, low):
    # a formula with 1/(d-1) or 2/d must not divide by zero, and none may evaluate below its dimension
    with pytest.raises(ValueError, match=f"{claim} needs ambient dimension >= {low}; got d = {params['d']}"):
        bound_value(claim, **params)


@pytest.mark.parametrize(
    "claim, params",
    [
        ("GS_LINES", dict(d=3, n=9, m=4, r1=3, r2=2)),
        ("LEMMA_BASE_2D", dict(d=5, n=4, m=3)),
        ("LEMMA_BASE_2D", dict(d=1, n=4, m=3)),
    ],
    ids=["GS_LINES-d3", "LEMMA_BASE_2D-d5", "LEMMA_BASE_2D-d1"],
)
def test_bound_value_rejects_planar_claim_off_the_plane(claim, params):
    # the planar claims are stated at d = 2 only; a given d is held to check_claim's domain rule
    with pytest.raises(ValueError, match=f"^{claim} is a planar claim; got d = {params['d']}$"):
        bound_value(claim, **params)
    with pytest.raises(ValueError, match=f"^{claim} is a planar claim; got d = {params['d']}$"):
        check_claim(claim, pset(params["d"], [(0,) * params["d"]]))
    planar = {k: v for k, v in params.items() if k != "d"}
    assert bound_value(claim, **planar, d=2) == bound_value(claim, **planar)


@pytest.mark.parametrize("claim, d", [("FHU_DIFF", 0), ("MAIN", 1), ("ASYM_THM", 12)])
def test_bound_value_refuses_as_check_domain_does(claim, d):
    # one domain rule: a formula evaluated at a given d is refused exactly where check_claim would be
    with pytest.raises(ValueError) as by_rule:
        check_domain(claim, d)
    with pytest.raises(ValueError) as by_formula:
        bound_value(claim, d=d, n=5, m=2)
    assert str(by_formula.value) == str(by_rule.value)


def test_asym_thm_past_d11_is_refused_on_a_flat_set():
    # the claim's constant cannot be formed past d = 11, so its hypothesis is never reached there
    d = 12
    flat = pset(d, [(0,) * d, (1,) + (0,) * (d - 1)])
    with pytest.raises(ValueError, match="computed for d <= 11 only; got d = 12$"):
        check_claim("ASYM_THM", flat, flat, Direction.of((1,) + (0,) * (d - 1)))


def test_main_bound_monotone_in_n():
    for d in (2, 3, 4):
        values = [bound_value("MAIN", d=d, n=n) for n in range(5, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_radical_comparison_cases():
    # 10 < 20 - 3*sqrt(9) = 11: yes; 11 < 11: no
    assert below_sqrt_threshold(10, 20, 3, 9)
    assert not below_sqrt_threshold(11, 20, 3, 9)
    # negative slack
    assert not below_sqrt_threshold(30, 20, 3, 9)
    # irrational radical decided exactly: 6 < 10 - 2*sqrt(2) = 7.17..., 8 is not
    assert below_sqrt_threshold(6, 10, 2, 2)
    assert not below_sqrt_threshold(8, 10, 2, 2)
    with pytest.raises(ValueError):
        below_sqrt_threshold(1, 2, -1, 4)


def test_main_on_stanchescu_margin_zero():
    report = check_claim("MAIN", stanchescu_dk(3, 2), as_conjecture=True)
    assert report.verdict == CONSISTENT
    assert report.lhs == report.rhs == 27
    assert report.margin == 0


def test_main_fails_on_the_4_cube():
    # MAIN holds only for sufficiently large A: {0,1}^4 has |A-A| = 3^4 = 81 below the bound 247/3
    cube = pset(4, itertools.product((0, 1), repeat=4))
    report = check_claim("MAIN", cube, as_conjecture=True)
    assert report.verdict == COUNTEREXAMPLE
    assert (report.lhs, report.rhs, report.margin) == (81, Fraction(247, 3), Fraction(-4, 3))
    assert check_claim("MAIN", cube).verdict == BELOW_GUARANTEED_SIZE


def test_main_vacuous_when_dimension_deficient():
    flat = pset(2, [(0, 0), (1, 0), (2, 0)])
    report = check_claim("MAIN", flat, as_conjecture=True)
    assert report.verdict == VACUOUS


def test_verdict_rule_exhaustive():
    # no honest instance of a proven claim can reach the failure verdicts,
    # so the rule itself is checked as a pure function
    from sumlab.bounds import _verdict

    assert _verdict(False, False, False) == VACUOUS
    assert _verdict(False, True, True) == VACUOUS
    assert _verdict(True, True, False) == CONSISTENT
    assert _verdict(True, True, True) == CONSISTENT
    assert _verdict(True, False, False) == COUNTEREXAMPLE
    assert _verdict(True, False, True) == BELOW_GUARANTEED_SIZE


def test_lemma_base_2d_hypothesis_reachable():
    # a thin 2 x 200 grid against a long AP sits below the sqrt threshold:
    # |A+B| = 998 < 400 + 7*300/3 - 5*sqrt(400) = 1000, and r1 = 2
    a = pset(2, [(x, y) for x in (0, 1) for y in range(200)])
    b = pset(2, [(0, y) for y in range(300)])
    report = check_claim("LEMMA_BASE_2D", a, b, Direction.of((0, 1)))
    assert report.hypothesis_holds
    assert report.verdict == CONSISTENT
    across = check_claim("LEMMA_BASE_2D", a, b, Direction.of((1, 0)))
    assert across.hypothesis_holds
    assert across.conclusion_holds  # r1 = 200 > |A|/4


def test_asym_thm_hypothesis_reachable():
    # same shape scaled past the error constant: 2298 < 800 + 7*750/3
    # - 8*sqrt(800) - 16, and the two lines give r = d exactly
    a = pset(2, [(x, y) for x in (0, 1) for y in range(400)])
    b = pset(2, [(0, y) for y in range(750)])
    report = check_claim("ASYM_THM", a, b, Direction.of((0, 1)))
    assert report.hypothesis_holds
    assert report.verdict == CONSISTENT


def test_fhu_thickened_ap_positive_margin():
    thick = pset(2, [(i, 0) for i in range(5)] + [(0, 1)])
    report = check_claim("FHU_DIFF", thick)
    assert report.verdict == CONSISTENT
    assert report.margin > 0


def test_gs_lines_square():
    square = pset(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    report = check_claim("GS_LINES", square, square, Direction.of((1, 0)))
    assert report.verdict == CONSISTENT
    assert report.lhs == report.rhs == 9


def test_gs_lines_requires_planar():
    cube = pset(3, [(0, 0, 0), (1, 1, 1)])
    with pytest.raises(ValueError):
        check_claim("GS_LINES", cube, cube, Direction.of((1, 0, 0)))


def test_claim_arity_errors():
    a = pset(2, [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        check_claim("RUZSA_ASYM", a)  # B missing
    with pytest.raises(ValueError):
        check_claim("TWOPLANES_1", a)  # direction missing
    with pytest.raises(ValueError):
        check_claim("UNKNOWN", a)


def _simplex(d):
    # the origin and the unit vectors: a full-dimensional set in every dimension
    return pset(d, [(0,) * d] + [tuple(int(i == j) for j in range(d)) for i in range(d)])


@pytest.mark.parametrize("claim", CLAIM_IDS)
def test_operands_of_another_dimension_are_refused(claim):
    # refused before any work, so no claim reads the mismatch as a failed hypothesis (VACUOUS)
    d = 2 if claim in PLANAR else 3
    a = _simplex(d)
    l = Direction.of((1,) + (0,) * (d - 1))
    with pytest.raises(ValueError, match=f"B has dimension {d + 1}, but A has dimension {d}"):
        check_claim(claim, a, _simplex(d + 1), l)
    with pytest.raises(ValueError, match=f"l has dimension {d - 1}, but A has dimension {d}"):
        check_claim(claim, a, a, Direction.of((1,) * (d - 1)))
    # operands of A's dimension that the claim does not use are accepted and ignored
    check_claim(claim, a, a, l)


@pytest.mark.parametrize("claim", CLAIM_IDS)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_claim_domain_matches_search(claim, d):
    # check_claim and SearchSpec apply one domain rule: both accept, or both refuse with one message
    def outcome(call):
        try:
            call()
        except ValueError as exc:
            return str(exc)
        return None

    a = _simplex(d)
    expected = outcome(lambda: check_claim(claim, a, a, Direction.of((1,) * d)))
    for mode in (EXHAUSTIVE, RANDOM):
        # exhaustive mode generates A alone, so its spec also refuses an in-domain claim on B or l
        want = expected
        if expected is None and mode == EXHAUSTIVE and claim in NEEDS_OPERANDS:
            want = f"claim {claim} needs operands exhaustive mode does not generate"
        assert outcome(lambda: SearchSpec(d, 2, (2,) * d, mode, seed=0, trials=1, claim=claim)) == want
    in_domain = (claim not in PLANAR or d == 2) and (d >= 2 or claim in ("FREIMAN_SUM", "FHU_DIFF", "RUZSA_ASYM"))
    assert (expected is None) == in_domain


def test_stan_doubling_boundary_is_vacuous():
    a = stan_doubling_tight(3, 5)
    report = check_claim("STAN_DOUBLING", a)
    assert not report.hypothesis_holds
    assert report.verdict == VACUOUS


def test_stan_doubling_conclusion_on_line_family():
    # d lines with long APs: doubling is below the threshold, cover = d
    a = freiman_aps(3, (9, 9, 9))
    report = check_claim("STAN_DOUBLING", a)
    assert report.hypothesis_holds
    assert report.verdict in (CONSISTENT, BELOW_GUARANTEED_SIZE)
    assert report.conclusion_holds  # coverable by 3 parallel lines


def test_ruzsa_on_random_instances():
    rng = random.Random(31)
    for _ in range(50):
        d = rng.choice((2, 3))
        a = pset(d, {tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(2, 9))})
        b = pset(d, {tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(1, len(a)))})
        report = check_claim("RUZSA_ASYM", a, b)
        assert report.verdict != COUNTEREXAMPLE


def test_freiman_and_fhu_random_no_counterexamples():
    rng = random.Random(32)
    for _ in range(60):
        d = rng.choice((2, 3))
        a = pset(d, {tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(2, 10))})
        for claim in ("FREIMAN_SUM", "FHU_DIFF"):
            assert check_claim(claim, a).verdict != COUNTEREXAMPLE


def test_dlines_claim():
    a = dlines_general_position(3, (3, 3, 3))
    report = check_claim("DLINES", a)
    assert report.hypothesis_holds
    assert report.verdict == CONSISTENT


def test_lines_4d_equality_instance():
    a = freiman_aps(2, (8, 8))
    report = check_claim("LINES_4D", a, l=Direction.of((0, 1)))
    assert report.hypothesis_holds
    assert report.verdict == CONSISTENT
    assert report.margin == 0


def test_lines_4d_thin_lines_vacuous():
    a = freiman_aps(2, (3, 3))
    report = check_claim("LINES_4D", a, l=Direction.of((0, 1)))
    assert report.verdict == VACUOUS


def test_twoplanes_on_stanchescu():
    a = stanchescu_dk(3, 4)
    l = Direction.of((0, 1, 0))
    report = check_claim("TWOPLANES_1", a, l=l)
    assert report.hypothesis_holds
    assert report.verdict == CONSISTENT


def test_twoplanes_vacuous_without_its_slab_pair():
    # a flat set is not full-dimensional
    flat = pset(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert check_claim("TWOPLANES_1", flat, l=Direction.of((0, 0, 1))).verdict == VACUOUS
    # two slabs, but the major slice is a segment rather than a plane
    a = pset(3, [(0, 1, 2), (0, 2, 1), (1, 0, 0), (2, 0, 1)])
    report = check_claim("TWOPLANES_1", a, l=Direction.of((1, 1, 0)))
    assert (report.verdict, report.lhs, report.rhs) == (VACUOUS, 13, 9)


def test_report_json_uses_strings():
    report = check_claim("MAIN", stanchescu_dk(2, 2), as_conjecture=True)
    blob = report.to_json()
    assert blob["lhs"] == "9" and blob["margin"] == "0"
    assert blob["verdict"] == CONSISTENT


def test_structure_diagnose_stanchescu():
    rep = structure_diagnose(stanchescu_dk(4, 3))
    assert rep["fits_two_hyperplanes"] is True
    assert rep["size_imbalance"] == 0
    assert rep["top_slice_line_cover"]["count"] == 3
    assert rep["top_slice_line_cover"]["class_sizes"] == [3, 3, 3]
    assert rep["top_slice_fits_dminus1_lines"] is True


def test_structure_diagnose_freiman():
    rep = structure_diagnose(freiman_aps(3, (4, 4, 4)))
    assert rep["line_cover"]["count"] == 3
    assert rep["slab_count"] == 2
    assert rep["slice_sizes"] == [8, 4]
    assert rep["size_imbalance"] == 4
    assert rep["top_slice_fits_dminus1_lines"] is True


def test_structure_diagnose_one_point_top_slice():
    rep = structure_diagnose(pset(2, [(0, 1), (1, 0), (1, 1), (2, 2)]))
    assert rep["slice_sizes"] == [1, 2, 1]
    assert rep["top_slice_line_cover"] is None
    assert rep["top_slice_fits_dminus1_lines"] is True


def test_structure_diagnose_generic_random():
    rng = random.Random(7)
    pts = set()
    while len(pts) < 20:
        pts.add(tuple(rng.randint(0, 9) for _ in range(3)))
    rep = structure_diagnose(pset(3, pts))
    assert rep["fits_two_hyperplanes"] is False
    assert rep["slab_count"] == 7


def test_structure_diagnose_rejects_flat():
    with pytest.raises(ValueError):
        structure_diagnose(pset(2, [(0, 0), (1, 0)]))


GOLDEN = Path(__file__).parent / "golden"


def _load(name):
    return PointSet.from_json(json.loads((GOLDEN / "inputs" / name).read_text()))


def _catalog_cases():
    """(case name, claim, A, B, l) for the claims catalog golden.

    Every claim runs on a committed input pair with both operands (planar
    claims on a2/b2, the rest on a3/b3); then each instance from the tests
    above that makes a claim's hypothesis true runs with that claim.
    """
    a2, b2, a3, b3 = (_load(f"{s}.json") for s in ("a2", "b2", "a3", "b3"))
    for claim in CLAIM_IDS:
        if claim in PLANAR:
            yield "a2.json, b2.json", claim, a2, b2, Direction.of((1, 0))
        else:
            yield "a3.json, b3.json", claim, a3, b3, Direction.of((0, 0, 1))
    vertical = Direction.of((0, 1))
    yield ("2x200 grid, 300-point AP", "LEMMA_BASE_2D", pset(2, [(x, y) for x in (0, 1) for y in range(200)]),
           pset(2, [(0, y) for y in range(300)]), vertical)
    yield ("2x400 grid, 750-point AP", "ASYM_THM", pset(2, [(x, y) for x in (0, 1) for y in range(400)]),
           pset(2, [(0, y) for y in range(750)]), vertical)
    yield "freiman_aps(2, (8, 8))", "LINES_4D", freiman_aps(2, (8, 8)), None, vertical
    yield "freiman_aps(3, (9, 9, 9))", "STAN_DOUBLING", freiman_aps(3, (9, 9, 9)), None, None
    yield "stanchescu_dk(3, 4)", "TWOPLANES_1", stanchescu_dk(3, 4), None, Direction.of((0, 1, 0))
    yield "dlines_general_position(3, (3, 3, 3))", "DLINES", dlines_general_position(3, (3, 3, 3)), None, None
    yield "{0,1}^4", "MAIN", pset(4, itertools.product((0, 1), repeat=4)), None, None


def claims_catalog() -> str:
    """The catalog golden's text: every case's report with as_conjecture off, then on.

    Rewrite the file from the repository root with
    python -c "import sys; sys.path[:0] = ['tests', 'src']; import test_bounds as t;
    open('tests/golden/claims_catalog.json', 'w').write(t.claims_catalog())"
    """
    entries = [
        {"case": case, "as_conjecture": conj, "report": check_claim(claim, a, b, l, as_conjecture=conj).to_json()}
        for case, claim, a, b, l in _catalog_cases()
        for conj in (False, True)
    ]
    return json.dumps(entries, indent=2) + "\n"


def test_claims_catalog_matches_golden():
    # pins every claim's report bytes, the verdict rule and the rational formatting
    assert claims_catalog().encode() == (GOLDEN / "claims_catalog.json").read_bytes()
