"""The ROADMAP baseline table as named jobs, each checked by an oracle.

    python3 sumbench/cases.py

Prints one JSON object: the machine (CPU count, Python version) and, per
case, the median wall time of REPS runs and whether every run was correct.
These cases take seconds each, too long for the timed workloads of run.py,
so they are kept apart and run on demand.  baseline_seed.json holds their
figures, and the medians of the run.py workloads, for the sources the
benchmark was introduced on.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import sys
from time import perf_counter

import oracles as O
from run import SRC, import_lab

REPS = 3


def _stanchescu_diff(lab, d, k):
    a = lab.stanchescu_dk(d, k)
    return lambda: lab.difference_set(a, a), lambda out: len(out) == O.main_bound(d, len(a))


def _stanchescu_cover(lab, d, k):
    a = lab.stanchescu_dk(d, k)
    want = O.min_line_cover(a.points)
    return lambda: lab.min_line_cover(a), lambda out: (out[0].vec, out[1]) == want


def _supporting_random(lab):
    rng = random.Random(4)
    pts = set()
    while len(pts) < 30:
        pts.add(tuple(rng.randint(0, 5) for _ in range(4)))
    a = lab.PointSet.of(4, pts)
    l = lab.Direction.of((1, 1, 0, 1))

    def ok(hs):
        return bool(hs) and all(
            O.dot(h.normal, l.vec) == 0 and O.supports(a.points, h.normal, h.offset) for h in hs
        )

    return lambda: lab.supporting_hyperplanes(a, l), ok


def _exhaustive(lab):
    spec = lab.SearchSpec(d=2, n=6, box=(5, 5), mode="EXHAUSTIVE", seed=0, require_full_dim=True)
    # Freiman-Heppes-Uhrin: |A-A| >= 3n - 3 = 15 in the plane; the 2x3 grid attains it
    want = int(O.freiman_bound(2, 6))

    def ok(r):
        return r.best_value == want and bool(r.witnesses) and all(
            O.diff_count(w.points, w.points) == want and O.affine_dim(w.points) == 2 for w in r.witnesses
        )

    return lambda: lab.exhaustive_min_diff(spec, prune=True, threads=1), ok


def _random_probe(lab):
    spec = lab.SearchSpec(d=3, n=10, box=(4, 4, 4), mode="RANDOM", seed=42, trials=2000,
                          claim="MAIN", as_conjecture=True)

    def ok(r):
        return r.candidates_examined == 2000 and all(
            O.diff_count(w.points, w.points) == r.best_value for w in r.witnesses
        )

    return lambda: lab.random_probe(spec), ok


CASES = {
    "difference_set.stanchescu_dk(3,40)": lambda lab: _stanchescu_diff(lab, 3, 40),
    "min_line_cover.stanchescu_dk(3,40)": lambda lab: _stanchescu_cover(lab, 3, 40),
    "difference_set.stanchescu_dk(4,20)": lambda lab: _stanchescu_diff(lab, 4, 20),
    "min_line_cover.stanchescu_dk(4,20)": lambda lab: _stanchescu_cover(lab, 4, 20),
    "supporting_hyperplanes.random30_d4": _supporting_random,
    "exhaustive_min_diff.d2_n6_box5_fulldim": _exhaustive,
    "random_probe.d3_n10_box4_MAIN_2000": _random_probe,
}


def main() -> int:
    if not (SRC / "sumlab" / "__init__.py").is_file():
        print(f"no sumlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    lab = import_lab()
    report = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "reps": REPS,
        "cases": {},
    }
    for name, build in CASES.items():
        fn, ok = build(lab)
        times, correct = [], True
        for _ in range(REPS):
            start = perf_counter()
            out = fn()
            times.append(perf_counter() - start)
            correct = correct and ok(out)
        report["cases"][name] = {"median_s": statistics.median(times), "correct": correct}
        print(f"{name}: {statistics.median(times):.3f} s, correct={correct}", file=sys.stderr)
    print(json.dumps(report, indent=1))
    return 0 if all(c["correct"] for c in report["cases"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
