"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction

from sumlab import (
    CompressionSpec,
    Direction,
    PointSet,
    SearchSpec,
    check_claim,
    compress_pair,
    difference_set,
    exhaustive_min_diff,
    freiman_aps,
    line_partition,
    min_line_cover,
    random_probe,
    reduce,
    stan_doubling_tight,
    stanchescu_dk,
    sumset,
)
from sumlab.cli import cli_dispatch
from sumlab.search import EXHAUSTIVE, RANDOM
from sumlab.compression import reduce_properties_hold
from sumlab.verify import random_compression_instance, random_reduce_instance


def report(cid: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {cid}: {status}{suffix}")


def test_criterion_1_stanchescu_difference_identity():
    failures = []
    for d in (2, 3, 4, 5):
        for k in range(1, 7):
            a = stanchescu_dk(d, k)
            want = (2 * d - 2 + Fraction(1, d - 1)) * (2 * (d - 1) * k) - (2 * d * d - 4 * d + 3)
            got = len(difference_set(a, a))
            if got != want:
                failures.append({"d": d, "k": k, "got": got, "want": str(want)})
    report("criterion 1 (construction difference identity)", failures)
    assert not failures


def test_criterion_2_stan_doubling_tightness():
    # The family sits on the STAN_DOUBLING threshold and is covered by
    # min(n,3) + d - 2 parallel lines: exactly d at n = 2, more from n = 3.
    # So from n = 3 the claim's d-line conclusion fails at the threshold
    # itself, with the hypothesis (doubling strictly below it) missed by
    # equality alone: the threshold cannot be raised.
    failures = []
    for d in (3, 4):
        for n in range(2, 7):
            a = stan_doubling_tight(d, n)
            want = (d + Fraction(4, 3)) * len(a) - Fraction(3 * d * d + 5 * d + 8, 6)
            got = len(sumset(a, a))
            if got != want:
                failures.append({"d": d, "n": n, "kind": "identity", "got": got})
            _, cover = min_line_cover(a)
            if cover != min(n, 3) + d - 2:
                failures.append({"d": d, "n": n, "kind": "cover formula", "cover": cover})
            if n >= 3:
                if not cover > d:
                    failures.append({"d": d, "n": n, "kind": "cover", "cover": cover})
            claim = check_claim("STAN_DOUBLING", a)
            if claim.hypothesis_holds or claim.conclusion_holds != (n < 3):
                failures.append({"d": d, "n": n, "kind": "claim", "report": claim.to_json()})
    report("criterion 2 (doubling-threshold tightness)", failures)
    assert not failures, failures


def test_criterion_3_freiman_tightness():
    failures = []
    for d in (1, 2, 3):
        for length in range(1, 7):
            a = freiman_aps(d, (length,) * d)
            want = (d + 1) * len(a) - Fraction(d * (d + 1), 2)
            got = len(sumset(a, a))
            if got != want:
                failures.append({"d": d, "length": length, "got": got, "want": str(want)})
    report("criterion 3 (Freiman equality)", failures)
    assert not failures


def test_criterion_4_compression_monotonicity():
    rng = random.Random(20240)
    failures = []
    for i in range(1000):
        d = 2 if i % 2 == 0 else 3
        a, b, spec = random_compression_instance(rng, d)
        pa, pb = compress_pair(a, b, spec)
        if len(pa) != len(a) or len(pb) != len(b):
            failures.append({"trial": i, "kind": "cardinality"})
        elif len(sumset(pa, pb)) > len(sumset(a, b)):
            failures.append({"trial": i, "kind": "monotonicity", "a": a.to_json(), "b": b.to_json()})
    report("criterion 4 (compression monotonicity, 1000 trials)", failures)
    assert not failures


def test_criterion_5_reduction_postconditions():
    rng = random.Random(20241)
    failures = []
    for i in range(500):
        d = 2 if i % 2 == 0 else 3
        a, b, l = random_reduce_instance(rng, d)
        problems = reduce_properties_hold(a, b, l)
        if problems:
            failures.append({"trial": i, "d": d, "problems": problems})
    square = PointSet.of(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    a2, _, _ = reduce(square, PointSet.of(2, [(0, 0)]), Direction.of((0, 1)))
    expected = PointSet.of(2, [(0, 0), (0, 1), (0, 2), (1, 0)])
    if a2 != expected:
        failures.append({"kind": "square example", "got": a2.to_json()})
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
    failures = []
    spec4 = SearchSpec(2, 4, (3, 3), EXHAUSTIVE, seed=0, require_full_dim=True)
    with_prune = exhaustive_min_diff(spec4, prune=True)
    without = exhaustive_min_diff(spec4, prune=False)
    if with_prune.best_value != 9:
        failures.append({"kind": "n=4 minimum", "got": with_prune.best_value})
    unit_square = PointSet.of(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    if unit_square not in with_prune.witnesses:
        failures.append({"kind": "n=4 witness missing"})
    if (with_prune.best_value, with_prune.witnesses) != (without.best_value, without.witnesses):
        failures.append({"kind": "prune parity n=4"})

    spec3 = SearchSpec(2, 3, (2, 2), EXHAUSTIVE, seed=0, require_full_dim=True)
    r3p = exhaustive_min_diff(spec3, prune=True)
    r3n = exhaustive_min_diff(spec3, prune=False)
    if r3p.best_value != 7:
        failures.append({"kind": "n=3 minimum", "got": r3p.best_value})
    if (r3p.best_value, r3p.witnesses) != (r3n.best_value, r3n.witnesses):
        failures.append({"kind": "prune parity n=3"})
    report("criterion 7 (exhaustive oracle, d=2)", failures)
    assert not failures


def test_criterion_8_conjecture_consistency():
    failures = []
    for d in (2, 3):
        for n in (8, 12):
            spec = SearchSpec(
                d, n, (4,) * d, RANDOM, seed=20243, trials=1000,
                claim="MAIN", as_conjecture=True, require_full_dim=True,
            )
            result = random_probe(spec)
            if result.violations:
                failures.append({"d": d, "n": n, "violations": len(result.violations)})
    for d in (2, 3, 4, 5):
        for k in range(1, 7):
            margin = check_claim("MAIN", stanchescu_dk(d, k), as_conjecture=True).margin
            if margin != 0:
                failures.append({"d": d, "k": k, "margin": str(margin)})
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
