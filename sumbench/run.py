"""Layered benchmark for sumlab.

    python3 sumbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `sumlab` is imported from its `src/`.
Workloads are listed in workloads.py.  Load is a closed loop: one client in
this process starts each job when the previous one has completed, and checks
the job's output with the brute-force oracles in between, outside the job's
timing.

--trace 0 prints the end-to-end metrics.  Every time is scaled to a
reference host speed, measured by a fixed work interleaved with the jobs
(speed.py); the unscaled figures are printed above the result.
  setup_s       median of SETUP_REPS set-ups spread evenly over the run,
                each after a full garbage collection: a fresh import of
                sumlab plus the library calls the workload shares between
                jobs (the constructions calls of extremal; none elsewhere).
                Inputs are generated block by block outside any timing.
  jobs_per_s    correct jobs per second of job time
  job_p50_s     median job latency
  job_tail_s    highest percentile with at least ten samples beyond it (which
                one, and the sample count, are printed above the result)
  peak_rss_mb   peak resident memory of this process
  success_rate  share of attempted jobs that neither raised nor failed their
                oracle, i.e. 1 - error_rate
--trace 1 runs a fixed, seed-determined set of jobs in rounds, each round
once untraced and once traced, and prints the per-layer metrics: busy time
(median over rounds, scaled as above) and calls of every library function
the benchmark calls, deterministic counts, and the harness's own share.  Counts must repeat
in every round and in every run with the same seed and sources (earlier
counts are kept in .sumbench_out/counts-*.json).  The spans of the traced
set-up (round 0) and of every traced round are written to
.sumbench_out/spans-<workload>-<seed>.jsonl, one JSON list per span:
[round, name, start, end, parent index within the round, job id].

--seed defaults to 1, --seconds to 25.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".sumbench_out"

from spans import Probe, Tracer  # noqa: E402
from speed import REFERENCE_S, Speed  # noqa: E402
from workloads import CLAIM_IDS, WORKLOADS  # noqa: E402

SETUP_REPS = 15
# The tail is the highest of p75/p90/p95/p99 with at least fifteen samples
# beyond it at this benchmark's run length, so that a run a third slower still
# has ten.  It is fixed per workload so that a faster program, which
# completes more jobs, reports the same percentile.
TAIL_PERCENTILE = {"exhaustive": 90, "catalog": 90, "extremal": 75, "certify": 95}
# blocks in the fixed job set of a traced run
TRACE_BLOCKS = {"exhaustive": 1, "catalog": 1, "extremal": 1, "certify": 20}

LAYER_FUNCTIONS = {
    "search": ("exhaustive_min_diff", "random_probe", "report_json"),
    "bounds": tuple(f"check_claim.{c}" for c in CLAIM_IDS) + ("structure_diagnose",),
    "incidence": (
        "min_line_cover", "line_partition", "supporting_hyperplanes", "major_hyperplane",
        "hyperplane_slices",
    ),
    "pointset": ("of", "from_json", "sumset", "difference_set", "affine_dimension", "apply_affine"),
    "compression": ("reduce", "compress_pair", "replay", "apply_specs", "trace_json"),
    "constructions": ("stanchescu_dk", "stan_doubling_tight", "freiman_aps"),
}
VERDICTS = ("CONSISTENT", "VACUOUS", "COUNTEREXAMPLE", "BELOW_GUARANTEED_SIZE")
COUNTS = (
    ("search.candidates_examined", "count"),
    ("search.witnesses", "count"),
    *((f"bounds.verdict.{v}", "count") for v in VERDICTS),
    ("pointset.out_points", "count"),
    ("compression.steps", "count"),
    ("compression.trace_bytes", "bytes"),
)


def import_lab():
    """Import sumlab from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "sumlab" or m.startswith("sumlab.")]:
        del sys.modules[name]
    lab = importlib.import_module("sumlab")
    if Path(lab.__file__).resolve().parent != SRC / "sumlab":
        raise SystemExit(f"imported sumlab from {lab.__file__}, not from {SRC}")
    return lab


def setup(workload: str, seed: int, probe: Probe):
    """One fresh set-up; returns (seconds, lab, blocks), where blocks(b)
    builds block b of the run's jobs from the seed alone.

    The import replaces sumlab in sys.modules.  A caller that keeps using an
    earlier `lab` is unaffected, as sumlab imports nothing at call time.
    """
    gc.collect()  # each set-up starts from the same heap: steadier timings
    start = perf_counter()
    lab = import_lab()
    block = WORKLOADS[workload][0](lab, probe, random.Random(f"{workload}/{seed}"))
    return perf_counter() - start, lab, lambda b: block(random.Random(f"{workload}/{seed}/{b}"))


class Loop:
    """Runs jobs one after another and checks each with its oracle."""

    def __init__(self, workload: str, lab):
        _, self.job_fn, self.check_fn = WORKLOADS[workload]
        self.lab = lab
        self.cache: dict = {}
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run(self, job_id, job, probe: Probe) -> float:
        self.attempted += 1
        start = perf_counter()
        try:
            with probe.job(job_id):
                out = self.job_fn(self.lab, probe, job.data)
        except Exception:  # a failing job is counted and reported, the run goes on
            elapsed = perf_counter() - start
            self._fail(f"job {job_id} {job.name} raised:\n{traceback.format_exc()}")
            return elapsed
        elapsed = perf_counter() - start
        problems = self.check_fn(job.data, out, self.cache)
        if problems:
            self._fail(f"job {job_id} {job.name}: " + "; ".join(problems[:3]))
        else:
            self.latencies.append(elapsed)
        return elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(message, file=sys.stderr)


def tail_percentile(workload: str, values: list[float]) -> tuple[float, int]:
    """(value, samples beyond it) at the workload's TAIL_PERCENTILE (nearest rank)."""
    ordered = sorted(values)
    rank = math.ceil(TAIL_PERCENTILE[workload] / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def input_properties(jobs) -> dict:
    sizes = sorted(j.size for j in jobs)
    seen: set = set()
    reused_queries = total_queries = reused_jobs = 0
    for j in jobs:
        total_queries += j.queries
        if j.set_key in seen:
            reused_jobs += 1
            reused_queries += j.queries
        else:
            reused_queries += j.queries - 1
            seen.add(j.set_key)
    uniform = [j.uniform for j in jobs if j.uniform is not None]
    return {
        "jobs": len(jobs),
        "rational_share": round(sum(j.rational for j in jobs) / len(jobs), 4),
        "set_size": {
            "min": sizes[0], "p25": sizes[len(sizes) // 4], "median": sizes[len(sizes) // 2],
            "p75": sizes[3 * len(sizes) // 4], "max": sizes[-1],
        },
        "query_reuse_share": round(reused_queries / total_queries, 4),
        "job_reuse_share": round(reused_jobs / len(jobs), 4),
        "uniform_box_share": round(sum(uniform) / len(uniform), 4) if uniform else None,
    }


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    first, lab, blocks = setup(workload, seed, Probe())
    # Reference slices run between the timed parts; every time is scaled by
    # the slices nearest to it (speed.py).
    speed = Speed()
    # Set-ups are repeated between jobs over the whole run, so that their
    # median sees the same machine as the jobs do, not one short moment.
    setups = [(first, speed.tick(first))]
    loop = Loop(workload, lab)
    probe = Probe()
    ran, marks = [], []
    start = perf_counter()
    b = 0
    while True:
        for i, job in enumerate(blocks(b)):
            passed = len(loop.latencies)
            mark = speed.tick(loop.run((b, i), job, probe))
            if len(loop.latencies) > passed:  # only correct jobs have a latency
                marks.append(mark)
            ran.append(replace(job, data=None))  # keep the properties, free the input
            if len(setups) < SETUP_REPS * min(1, (perf_counter() - start) / seconds):
                elapsed = setup(workload, seed, Probe())[0]
                setups.append((elapsed, speed.tick(elapsed)))
        b += 1
        if perf_counter() - start >= seconds:
            break
    while len(setups) < SETUP_REPS:
        elapsed = setup(workload, seed, Probe())[0]
        setups.append((elapsed, speed.tick(elapsed)))
    raw_latencies = loop.latencies
    latencies = [speed.scaled(t, m) for t, m in zip(raw_latencies, marks)]
    setup_times = [speed.scaled(t, m) for t, m in setups]
    busy = sum(latencies)
    tail, beyond = tail_percentile(workload, latencies) if latencies else (0.0, 0)
    print(f"workload {workload} seed {seed}: {loop.attempted} jobs in {b} blocks, "
          f"{loop.failed} failed, error_rate {loop.failed / loop.attempted:.4f}")
    print(f"job_tail_s is p{TAIL_PERCENTILE[workload]} of {len(latencies)} samples "
          f"({beyond} beyond it{'' if beyond >= 10 else ', FEWER THAN TEN'})")
    if raw_latencies:
        print(f"host speed: {len(speed.slices)} reference slices, median "
              f"{statistics.median(speed.slices):.6f} s (reference {REFERENCE_S} s); unscaled "
              f"setup_s {statistics.median(t for t, _ in setups):.6f}, "
              f"jobs_per_s {len(raw_latencies) / sum(raw_latencies):.4f}, "
              f"job_p50_s {statistics.median(raw_latencies):.6f}")
    print("input properties: " + json.dumps(input_properties(ran)))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_s": (len(latencies) / busy if busy else 0.0, "1/s"),
        "job_p50_s": (statistics.median(latencies) if latencies else 0.0, "s"),
        "job_tail_s": (tail, "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MiB"),
        "success_rate": (1 - loop.failed / loop.attempted, "share"),
    }
    return result(loop.failed == 0, loop.attempted, loop.failed, metrics)


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    setup_tracer = Tracer()
    setup_elapsed, lab, blocks = setup(workload, seed, setup_tracer)
    jobs = [(b, i, job) for b in range(TRACE_BLOCKS[workload]) for i, job in enumerate(blocks(b))]
    loop = Loop(workload, lab)
    # every time is scaled to reference host speed, as in run_untraced; the
    # busy times of a round share the scale of the round's end
    speed = Speed()
    setup_mark = speed.tick(setup_elapsed)
    untraced, traced, tracers = [], [], []
    start = perf_counter()
    while len(tracers) < 2 or perf_counter() - start < seconds:
        plain = Probe()
        elapsed = sum(loop.run((b, i), job, plain) for b, i, job in jobs)
        untraced.append((elapsed, speed.tick(elapsed)))
        tracer = Tracer()
        elapsed = sum(loop.run((b, i), job, tracer) for b, i, job in jobs)
        traced.append((elapsed, speed.tick(elapsed)))
        tracers.append(tracer)
    busy = [_scaled(t.busy(), speed.scaled(1.0, m)) for t, (_, m) in zip(tracers, traced)]
    setup_busy = _scaled(setup_tracer.busy(), speed.scaled(1.0, setup_mark))
    untraced = [speed.scaled(t, m) for t, m in untraced]
    traced = [speed.scaled(t, m) for t, m in traced]
    counts = [t.counts for t in tracers]
    stable = all(c == counts[0] for c in counts)
    if not stable:
        print("deterministic counts differ between rounds", file=sys.stderr)
    stable = stable and counts_repeat(workload, seed, setup_tracer.counts + counts[0])
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{workload}-{seed}.jsonl", "w") as fh:
        for r, tracer in enumerate([setup_tracer] + tracers):
            for span in tracer.spans:
                fh.write(json.dumps([r, *span]) + "\n")

    c = counts[0] + setup_tracer.counts

    def med(name):
        if name.startswith("constructions."):
            return setup_busy[name]
        return statistics.median(x[name] for x in busy)

    metrics = {}
    for module, functions in LAYER_FUNCTIONS.items():
        for f in functions:
            metrics[f"{module}.{f}.busy_s"] = (med(f"{module}.{f}"), "s")
            metrics[f"{module}.{f}.calls"] = (c[f"{module}.{f}.calls"], "count")
    for name, unit in COUNTS:
        metrics[name] = (c[name], unit)
    total = c["search.candidate_count"]
    metrics["search.examined_frac"] = (c["search.candidates_examined"] / total if total else 0.0, "ratio")
    metrics["bench.self_s"] = (med("bench.self"), "s")
    metrics["bench.trace_overhead"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    print(f"workload {workload} seed {seed}: {len(jobs)} traced jobs x {len(tracers)} rounds, "
          f"{loop.failed} failed, counts {'repeat' if stable else 'DIFFER'}")
    print("input properties: " + json.dumps(input_properties([j for _, _, j in jobs])))
    return result(loop.failed == 0 and stable, loop.attempted, loop.failed, metrics)


def _scaled(busy: Counter, factor: float) -> Counter:
    return Counter({name: t * factor for name, t in busy.items()})


def counts_repeat(workload: str, seed: int, counts: Counter) -> bool:
    """Compare with the counts of an earlier run of the same seed and sources."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")) + sorted(HERE.glob("*.json")):
        digest.update(path.read_bytes())
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"counts-{workload}-{seed}-{digest.hexdigest()[:16]}.json"
    now = json.dumps(dict(sorted(counts.items())), indent=0)
    if path.exists():
        if path.read_text() != now:
            print(f"deterministic counts differ from the earlier run in {path.name}", file=sys.stderr)
            return False
    else:
        path.write_text(now)
    return True


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sumlab" / "__init__.py").is_file():
        print(f"no sumlab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # setup_s times an import from bytecode, as of an installed package, also
    # where the environment turns bytecode writing off: the first set-up
    # compiles and writes it, and the median leaves that one out.
    sys.dont_write_bytecode = False
    run = run_traced if args.trace else run_untraced
    out = run(args.workload, args.seed, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
