"""Seeded verification battery behind the `verify` CLI subcommand.

The checks compare the library with what it must agree with: the sizes of
the extremal constructions and of random sets with the bound formulas of
`bound_value` and `check_claim`, each compression and reduction with the
invariants it must keep, and the pruned exhaustive walk with the walk with
pruning off. The summary report is fully deterministic for a fixed (suite,
trials, seed, dims) configuration. The acceptance module runs the same checks
with its own seeds and trial counts, the randomized ones through
`compression_checks` and `reduce_checks`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ._version import __version__
from .bounds import CONSISTENT, COUNTEREXAMPLE, bound_value, check_claim
from .compression import CompressionSpec, compress_pair, reduce as reduce_lines, reduce_properties_hold
from .constructions import dlines_general_position, freiman_aps, stan_doubling_tight, stanchescu_dk
from .incidence import Direction, Hyperplane, min_line_cover, project_along
from .pointset import PointSet, affine_dimension, difference_count, sumset_count
from . import search
from .search import EXHAUSTIVE, RANDOM, SearchSpec, exhaustive_min_diff, random_probe

SUITES = ("constructions", "compression", "reduce", "claims", "search", "all")


@dataclass(frozen=True)
class VerifySuite:
    suite: str
    trials: int
    seed: int
    dims: tuple[int, ...] = (2, 3, 4, 5)

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.dims or any(d < 2 or d > 6 for d in self.dims):
            raise ValueError("dims must be a nonempty subset of {2,...,6}")


def _sample_set(rng: random.Random, d: int, count: int, box: int) -> PointSet:
    pts = set()
    while len(pts) < count:
        pts.add(tuple(rng.randint(0, box) for _ in range(d)))
    return PointSet.of(d, pts)


def _check(name: str, failures: list, extra: dict | None = None) -> dict:
    out = {"name": name, "pass": not failures, "failures": failures}
    if extra:
        out["details"] = extra
    return out


def suite_constructions(cfg: VerifySuite) -> list[dict]:
    checks = []

    failures = []
    for d in cfg.dims:
        for k in range(1, 9):
            a = stanchescu_dk(d, k)
            if len(a) != 2 * (d - 1) * k:
                failures.append({"d": d, "k": k, "size": len(a)})
    checks.append(_check("stanchescu_cardinality", failures))

    failures = []
    for d in [x for x in cfg.dims if x <= 5]:
        for k in range(1, 7):
            a = stanchescu_dk(d, k)
            got = difference_count(a, a)
            want = bound_value("MAIN", d=d, n=len(a))
            if got != want:
                failures.append({"d": d, "k": k, "got": got, "want": str(want)})
    checks.append(_check("stanchescu_difference_identity", failures))

    failures = []
    notes = []
    for d in cfg.dims:
        for n in range(2, 7):
            a = stan_doubling_tight(d, n)
            got = sumset_count(a, a)
            want = bound_value("STAN_DOUBLING", d=d, n=len(a))
            if got != want:
                failures.append({"d": d, "n": n, "got": got, "want": str(want)})
            _, cover = min_line_cover(a)
            if n >= 3 and cover <= d:
                failures.append({"d": d, "n": n, "cover": cover})
            if n == 2:
                notes.append({"d": d, "n": n, "cover": cover})
    checks.append(
        _check(
            "stan_doubling_identity_and_cover",
            failures,
            {"n2_covers": notes, "note": "n=2 attains the d-line cover exactly"},
        )
    )

    failures = []
    for d in (1, 2, 3):
        for length in range(1, 7):
            a = freiman_aps(d, [length] * d)
            got = sumset_count(a, a)
            want = bound_value("FREIMAN_SUM", d=d, n=len(a))
            if got != want:
                failures.append({"d": d, "length": length, "got": got, "want": str(want)})
    checks.append(_check("freiman_equality", failures))

    failures = []
    for d in [x for x in cfg.dims if x <= 4]:
        for length in (2, 3):
            a = dlines_general_position(d, [length] * d)
            report = check_claim("DLINES", a)
            if report.verdict != CONSISTENT:
                failures.append({"d": d, "length": length, "verdict": report.verdict})
    checks.append(_check("dlines_bound", failures))
    return checks


def random_compression_instance(rng: random.Random, d: int, box: int = 5):
    a = _sample_set(rng, d, rng.randint(3, 12), box)
    b = _sample_set(rng, d, rng.randint(1, 8), box)
    while True:
        normal = tuple(rng.randint(-2, 2) for _ in range(d))
        if any(normal):
            break
    anchor = tuple(rng.randint(0, box) for _ in range(d))
    offset = sum(n * c for n, c in zip(normal, anchor))
    while True:
        vec = tuple(rng.randint(-2, 2) for _ in range(d))
        if any(vec) and sum(n * v for n, v in zip(normal, vec)) != 0:
            break
    spec = CompressionSpec(Hyperplane.of(normal, offset), Direction.of(vec))
    return a, b, spec


def compression_checks(rng: random.Random, trials: int, dims) -> list[dict]:
    mono_failures = []
    proj_failures = []
    for i in range(trials):
        d = dims[i % len(dims)]
        a, b, spec = random_compression_instance(rng, d)
        pa, pb = compress_pair(a, b, spec)
        if len(pa) != len(a) or len(pb) != len(b):
            mono_failures.append({"trial": i, "kind": "cardinality"})
        if sumset_count(pa, pb) > sumset_count(a, b):
            mono_failures.append({"trial": i, "kind": "monotonicity", "a": a.to_json(), "b": b.to_json()})
        shadow = {project_along(p, spec.direction) for p in a.points}
        if {project_along(p, spec.direction) for p in pa.points} != shadow:
            proj_failures.append({"trial": i})
    return [
        _check("compress_monotonicity", mono_failures, {"trials": trials}),
        _check("compress_projection_preserved", proj_failures),
    ]


def suite_compression(cfg: VerifySuite) -> list[dict]:
    dims = [d for d in cfg.dims if d in (2, 3)] or [2, 3]
    return compression_checks(search._seeded_rng(f"{cfg.seed}:compression"), cfg.trials, dims)


def random_reduce_instance(rng: random.Random, d: int):
    """Full-dimensional (A, B, l) with some line parallel to l holding two points.

    In the plane the slab-plus-point target forces exactly two lines, so the
    d = 2 generator places the set on two parallel lines.
    """
    if d == 2:
        while True:
            vec = (rng.randint(0, 2), rng.randint(-2, 2))
            if vec != (0, 0):
                break
        l = Direction.of(vec)
        base0 = (rng.randint(0, 4), rng.randint(0, 4))
        while True:
            base1 = (rng.randint(0, 4), rng.randint(0, 4))
            if project_along(base1, l) != project_along(base0, l):
                break
        n0 = rng.randint(1, 4)
        n1 = rng.randint(max(1, 3 - n0), 4)
        pts = [
            tuple(c + t * v for c, v in zip(base, l.vec))
            for base, count in ((base0, n0), (base1, n1))
            for t in rng.sample(range(6), count)
        ]
        a = PointSet.of(2, pts)
    else:
        while True:
            a = _sample_set(rng, d, rng.randint(d + 2, d + 7), 4)
            if affine_dimension(a) == d:
                break
        p, q = rng.sample(a.points, 2)
        l = Direction.of(tuple(x - y for x, y in zip(p, q)))
    b = _sample_set(rng, d, rng.randint(1, 6), 4)
    return a, b, l


def reduce_checks(rng: random.Random, trials: int, dims) -> list[dict]:
    failures = []
    for i in range(trials):
        d = dims[i % len(dims)]
        a, b, l = random_reduce_instance(rng, d)
        problems = reduce_properties_hold(a, b, l)
        if problems:
            failures.append({"trial": i, "d": d, "problems": problems, "a": a.to_json()})
    square = PointSet.of(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    a2, _, _ = reduce_lines(square, PointSet.of(2, [(0, 0)]), Direction.of((0, 1)))
    want = PointSet.of(2, [(0, 0), (0, 1), (0, 2), (1, 0)])
    return [
        _check("reduce_postconditions", failures, {"trials": trials}),
        _check("reduce_square_example", [] if a2 == want else [{"got": a2.to_json()}]),
    ]


def suite_reduce(cfg: VerifySuite) -> list[dict]:
    dims = [d for d in cfg.dims if d in (2, 3)] or [2, 3]
    return reduce_checks(search._seeded_rng(f"{cfg.seed}:reduce"), cfg.trials, dims)


def suite_claims(cfg: VerifySuite) -> list[dict]:
    checks = []
    rng = search._seeded_rng(f"{cfg.seed}:claims-gs")
    failures = []
    for i in range(cfg.trials):
        a = _sample_set(rng, 2, rng.randint(2, 10), 5)
        b = _sample_set(rng, 2, rng.randint(1, 8), 5)
        l = search._random_direction(rng, 2)
        report = check_claim("GS_LINES", a, b, l)
        if report.verdict == COUNTEREXAMPLE:
            failures.append(report.to_json())
    checks.append(_check("gs_lines_random", failures, {"trials": cfg.trials}))

    rng = search._seeded_rng(f"{cfg.seed}:claims-unconditional")
    failures = []
    for i in range(max(1, cfg.trials // 4)):
        d = [2, 3][i % 2]
        a = _sample_set(rng, d, rng.randint(d + 1, 10), 4)
        b = _sample_set(rng, d, rng.randint(1, len(a)), 4)
        for claim in ("FREIMAN_SUM", "FHU_DIFF", "RUZSA_ASYM"):
            report = check_claim(claim, a, b)
            if report.verdict == COUNTEREXAMPLE:
                failures.append(report.to_json())
    checks.append(_check("unconditional_claims_random", failures))

    failures = []
    for d in [x for x in cfg.dims if x <= 5]:
        for k in range(1, 7):
            report = check_claim("MAIN", stanchescu_dk(d, k), as_conjecture=True)
            # k = 1 omits the progression direction, so the set is only
            # (d-1)-dimensional and the claim is vacuous; the margin is
            # exactly zero in every case.
            if report.margin != 0 or (k >= 2 and report.verdict != CONSISTENT):
                failures.append({"d": d, "k": k, "margin": str(report.margin), "verdict": report.verdict})
    checks.append(_check("main_margin_zero_on_stanchescu", failures))
    return checks


def suite_search(cfg: VerifySuite) -> list[dict]:
    checks = []
    failures = []
    fixtures = [
        (SearchSpec(2, 4, (3, 3), EXHAUSTIVE, seed=0, require_full_dim=True), 9),
        (SearchSpec(2, 3, (2, 2), EXHAUSTIVE, seed=0, require_full_dim=True), 7),
        (SearchSpec(1, 3, (4,), EXHAUSTIVE, seed=0), 5),
    ]
    for spec, want in fixtures:
        pruned = exhaustive_min_diff(spec, prune=True)
        plain = exhaustive_min_diff(spec, prune=False)
        if pruned.best_value != want:
            failures.append({"spec": spec.to_json(), "got": pruned.best_value, "want": want})
        if pruned.best_value != plain.best_value or pruned.witnesses != plain.witnesses:
            failures.append({"spec": spec.to_json(), "kind": "prune mismatch"})
    checks.append(_check("exhaustive_fixtures", failures))

    failures = []
    for d in [x for x in cfg.dims if x in (2, 3)] or [2, 3]:
        spec = SearchSpec(
            d, 10, (4,) * d, RANDOM, seed=cfg.seed, trials=cfg.trials,
            claim="MAIN", as_conjecture=True, require_full_dim=True,
        )
        result = random_probe(spec)
        if result.violations:
            failures.append({"d": d, "violations": [v.to_json() for v in result.violations]})
    checks.append(_check("main_conjecture_probe", failures, {"trials": cfg.trials}))
    return checks


def verify_battery(cfg: VerifySuite) -> dict:
    """Run the configured suites; returns a deterministic summary report."""
    runners = {
        "constructions": suite_constructions,
        "compression": suite_compression,
        "reduce": suite_reduce,
        "claims": suite_claims,
        "search": suite_search,
    }
    names = list(runners) if cfg.suite == "all" else [cfg.suite]
    checks = []
    for name in names:
        checks.extend(runners[name](cfg))
    return {
        "version": __version__,
        "suite": cfg.suite,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "dims": list(cfg.dims),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
