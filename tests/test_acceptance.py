"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria 1-5, 7 and 8 run the checks of `sumlab.verify` with their own seeds,
trial counts and dims, and add the checks that are theirs alone.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction

from sumlab import (
    Direction,
    PointSet,
    SearchSpec,
    check_claim,
    exhaustive_min_diff,
    line_partition,
    min_line_cover,
    random_probe,
    stan_doubling_tight,
    sumset,
)
from sumlab.cli import cli_dispatch
from sumlab.search import EXHAUSTIVE, RANDOM
from sumlab.verify import VerifySuite, compression_checks, reduce_checks, verify_battery


def report(cid: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {cid}: {status}{suffix}")


def verify_failures(suite: str, name: str, dims: tuple) -> list:
    """The failures of one deterministic `sumlab verify` check, which reads no seed or trial count."""
    checks = verify_battery(VerifySuite(suite, trials=1, seed=0, dims=dims))["checks"]
    return next(c["failures"] for c in checks if c["name"] == name)


def all_failures(checks: list[dict]) -> list:
    return [f for check in checks for f in check["failures"]]


def test_criterion_1_stanchescu_difference_identity():
    failures = verify_failures("constructions", "stanchescu_difference_identity", (2, 3, 4, 5))
    report("criterion 1 (construction difference identity)", failures)
    assert not failures


def test_criterion_2_stan_doubling_tightness():
    # The family sits on the STAN_DOUBLING threshold and is covered by
    # min(n,3) + d - 2 parallel lines: exactly d at n = 2, more from n = 3.
    # So from n = 3 the claim's d-line conclusion fails at the threshold
    # itself, with the hypothesis (doubling strictly below it) missed by
    # equality alone: the threshold cannot be raised. The verify check holds
    # the identity and the cover above d from n = 3.
    failures = verify_failures("constructions", "stan_doubling_identity_and_cover", (3, 4))
    for d in (3, 4):
        for n in range(2, 7):
            a = stan_doubling_tight(d, n)
            _, cover = min_line_cover(a)
            if cover != min(n, 3) + d - 2:
                failures.append({"d": d, "n": n, "kind": "cover formula", "cover": cover})
            claim = check_claim("STAN_DOUBLING", a)
            if claim.hypothesis_holds or claim.conclusion_holds != (n < 3):
                failures.append({"d": d, "n": n, "kind": "claim", "report": claim.to_json()})
    report("criterion 2 (doubling-threshold tightness)", failures)
    assert not failures, failures


def test_criterion_3_freiman_tightness():
    # the check builds freiman_aps(d, (length,) * d) for d = 1, 2, 3 whatever the dims
    failures = verify_failures("constructions", "freiman_equality", (2,))
    report("criterion 3 (Freiman equality)", failures)
    assert not failures


def test_criterion_4_compression_monotonicity():
    failures = all_failures(compression_checks(random.Random(20240), 1000, (2, 3)))
    report("criterion 4 (compression monotonicity, 1000 trials)", failures)
    assert not failures


def test_criterion_5_reduction_postconditions():
    failures = all_failures(reduce_checks(random.Random(20241), 500, (2, 3)))
    report("criterion 5 (reduction postconditions, 500 trials)", failures)
    assert not failures


def test_criterion_6_grynkiewicz_serra():
    rng = random.Random(20242)
    failures = []
    for i in range(1000):
        pts_a = {tuple(rng.randint(0, 5) for _ in range(2)) for _ in range(rng.randint(2, 10))}
        pts_b = {tuple(rng.randint(0, 5) for _ in range(2)) for _ in range(rng.randint(1, 8))}
        a, b = PointSet.of(2, pts_a), PointSet.of(2, pts_b)
        while True:
            vec = (rng.randint(-3, 3), rng.randint(-3, 3))
            if any(vec):
                break
        l = Direction.of(vec)
        r1 = line_partition(a, l).count
        r2 = line_partition(b, l).count
        bound = (Fraction(len(a), r1) + Fraction(len(b), r2) - 1) * (r1 + r2 - 1)
        if len(sumset(a, b)) < bound:
            failures.append({"trial": i, "a": a.to_json(), "b": b.to_json(), "l": l.vec})
    report("criterion 6 (line-count sumset bound, 1000 trials)", failures)
    assert not failures


def test_criterion_7_exhaustive_oracle():
    # the verify check pins the minima 9 (n = 4) and 7 (n = 3) and the parity of pruning on and off
    failures = verify_failures("search", "exhaustive_fixtures", (2,))
    spec4 = SearchSpec(2, 4, (3, 3), EXHAUSTIVE, seed=0, require_full_dim=True)
    unit_square = PointSet.of(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    if unit_square not in exhaustive_min_diff(spec4, prune=True).witnesses:
        failures.append({"kind": "n=4 witness missing"})
    report("criterion 7 (exhaustive oracle, d=2)", failures)
    assert not failures


def test_criterion_8_conjecture_consistency():
    failures = verify_failures("claims", "main_margin_zero_on_stanchescu", (2, 3, 4, 5))
    for d in (2, 3):
        for n in (8, 12):
            spec = SearchSpec(
                d, n, (4,) * d, RANDOM, seed=20243, trials=1000,
                claim="MAIN", as_conjecture=True, require_full_dim=True,
            )
            result = random_probe(spec)
            if result.violations:
                failures.append({"d": d, "n": n, "violations": len(result.violations)})
    report("criterion 8 (conjecture consistency, 1000 trials/config)", failures)
    assert not failures


def test_criterion_9_verify_determinism():
    def run() -> str:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_dispatch(["verify", "--suite", "all", "--seed", "42"])
        return buf.getvalue(), code

    out1, code1 = run()
    out2, code2 = run()
    failures = []
    if out1 != out2:
        failures.append({"kind": "outputs differ"})
    if code1 != code2:
        failures.append({"kind": "exit codes differ"})
    report("criterion 9 (verify determinism)", failures, f"{len(out1)} bytes, exit {code1}")
    assert not failures
