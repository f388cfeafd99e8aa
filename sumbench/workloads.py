"""The four workloads: seeded input generation, the timed job, its oracle.

Each workload has three parts:
- `setup(lab, probe, rng)` makes the library calls a run shares (the family
  members of extremal) and returns `block(rng)`, which builds one block of
  jobs.  A block holds a fixed mix of job shapes in seeded order, so every
  seed sees the same mix and only the concrete inputs differ; this keeps the
  end-to-end figures steady across seeds.  The run times `setup` and builds
  blocks as it needs them, outside any timing, so input generation (the
  benchmark's own work) counts neither as set-up nor as job time.
- `job(lab, probe, x)` is the timed part: it calls the library, each call
  through `probe.call`, and returns what the oracle needs.
- `check(x, out, cache)` runs after the job, outside its timing, and returns
  a list of problems found by the brute-force oracles (empty when correct).

`lab` is the imported `sumlab` package; no module here imports it, so the
set-up timing can import it afresh.  Random instances come from the
benchmark's own generator, never from `sumlab.verify`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracles as O

CLAIM_IDS = (
    "FREIMAN_SUM", "FHU_DIFF", "RUZSA_ASYM", "GS_LINES", "LEMMA_BASE_2D", "ASYM_THM",
    "STAN_DOUBLING", "DLINES", "TWOPLANES_1", "LINES_4D", "MAIN",
)
PLANAR_CLAIMS = ("GS_LINES", "LEMMA_BASE_2D")


@dataclass
class Job:
    """One job's input plus the input properties the run reports."""

    data: dict
    set_key: object  # identity of the set the job queries, for the reuse share
    size: int  # points in that set
    queries: int  # library calls made on that set
    rational: bool = False
    uniform: bool | None = None
    name: str = ""


def _claims_for(d: int) -> list[str]:
    return [c for c in CLAIM_IDS if d == 2 or c not in PLANAR_CLAIMS]


def _nonzero_vec(rng: random.Random, d: int, lo: int = -2, hi: int = 2) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(lo, hi) for _ in range(d))
        if any(v):
            return v


def _distinct_points(rng: random.Random, d: int, count: int, box: int) -> list[tuple[int, ...]]:
    pts: set[tuple[int, ...]] = set()
    while len(pts) < count:
        pts.add(tuple(rng.randint(0, box) for _ in range(d)))
    return sorted(pts)


def _rational_map(rng: random.Random, d: int):
    """x -> x/q + t with non-integer t: a rational image with the same
    sums, differences and lines as the integer original."""
    q = rng.choice((2, 3))
    t = [Fraction(rng.choice((1, 2, 4)), rng.choice((3, 5, 7))) for _ in range(d)]
    return lambda pts: [tuple(Fraction(c, q) + s for c, s in zip(p, t)) for p in pts]


def _block(rng: random.Random, shapes, make) -> list[Job]:
    order = list(shapes)
    rng.shuffle(order)
    return [make(rng, s) for s in order]


# --------------------------------------------------------------------------
# exhaustive: the search tree walk does nearly all the work.

# (d, n, box, require_full_dim).  Uniform boxes turn on permutation
# canonicalisation; non-uniform ones leave it off.
EXHAUSTIVE_SPECS = (
    (1, 6, (14,), False),
    (1, 7, (14,), False),
    (1, 8, (14,), False),
    (2, 4, (3, 3), True),
    (2, 5, (3, 3), False),
    (2, 5, (3, 3), True),
    (2, 4, (2, 4), True),
    (2, 5, (2, 4), True),
    (2, 5, (2, 3), True),
    (2, 5, (3, 2), False),
    (3, 4, (1, 1, 1), True),
    (3, 5, (1, 1, 1), True),
    (3, 4, (1, 1, 2), True),
    (3, 5, (1, 1, 2), True),
    (3, 4, (1, 2, 2), False),
    (3, 5, (1, 2, 2), False),
    (3, 5, (1, 1, 3), False),
    (3, 4, (2, 2, 2), False),
)
MINIMA_FILE = Path(__file__).with_name("minima.json")


def spec_key(d, n, box, full) -> str:
    return f"d={d} n={n} box={'x'.join(map(str, box))} full={int(full)}"


def setup_exhaustive(lab, probe, rng):
    minima = json.loads(MINIMA_FILE.read_text())

    def make(rng, s):
        d, n, box, full = s
        return Job(
            {"spec": s, "seed": rng.randrange(2**31), "min": minima[spec_key(*s)]},
            set_key=s, size=n, queries=1, uniform=len(set(box)) == 1, name=spec_key(*s),
        )

    return lambda rng: _block(rng, EXHAUSTIVE_SPECS, make)


def job_exhaustive(lab, probe, x):
    d, n, box, full = x["spec"]
    spec = lab.SearchSpec(d=d, n=n, box=box, mode="EXHAUSTIVE", seed=x["seed"], require_full_dim=full)
    result = probe.call("search.exhaustive_min_diff", lab.exhaustive_min_diff, spec, prune=True, threads=1)
    report = probe.call("search.report_json", lambda r: json.dumps(r.to_json(), indent=2), result)
    return result, report


def check_exhaustive(x, out, cache):
    result, report = out
    d, n, box, full = x["spec"]
    problems = []
    if result.best_value != x["min"]:
        problems.append(f"min {result.best_value} != table {x['min']}")
    if json.loads(report)["best_value"] != result.best_value:
        problems.append("report best_value differs")
    if not result.witnesses:
        problems.append("no witness")
    for w in result.witnesses:
        pts = list(w.points)
        if len(pts) != n or any(not 0 <= c <= m for p in pts for c, m in zip(p, box)):
            problems.append(f"witness outside the spec: {pts}")
        elif O.diff_count(pts, pts) != x["min"]:
            problems.append(f"witness |A-A| != {x['min']}: {pts}")
        elif full and O.affine_dim(pts) != d:
            problems.append(f"witness not full-dimensional: {pts}")
    return problems


# --------------------------------------------------------------------------
# catalog: many tiny unrelated sets; per-call overhead dominates.

CATALOG_BOX = {2: 5, 3: 3, 4: 2}


def _catalog_shapes():
    """(d, n, rational, probe claim): per dimension one job per claim valid
    there, sizes spread evenly over d+2..12, every third job rational."""
    shapes = []
    for d in (2, 3, 4):
        claims = _claims_for(d)
        for i, claim in enumerate(claims):
            n = d + 2 + (i * (10 - d)) // (len(claims) - 1)
            shapes.append((d, n, i % 3 == 2, claim))
    return shapes


CATALOG_SHAPES = _catalog_shapes()


def setup_catalog(lab, probe, rng):
    def make(rng, shape):
        d, n, rational, probe_claim = shape
        box = CATALOG_BOX[d]
        a = _distinct_points(rng, d, n, box)
        b = _distinct_points(rng, d, n // 2 + 1, box)
        if rational:
            image = _rational_map(rng, d)
            a, b = image(a), image(b)
        probe_spec = {
            "d": d, "n": d + 3, "box": (2,) * d, "seed": rng.randrange(2**31),
            "claim": probe_claim, "as_conjecture": probe_claim == "MAIN",
        }
        claims = _claims_for(d)
        data = {"d": d, "a": a, "b": b, "l": _nonzero_vec(rng, d), "claims": claims, "probe": probe_spec}
        return Job(data, set_key=object(), size=n, queries=len(claims), rational=rational,
                   name=f"d={d} n={n} probe={probe_claim}")

    return lambda rng: _block(rng, CATALOG_SHAPES, make)


PROBE_TRIALS = 4


def job_catalog(lab, probe, x):
    d = x["d"]
    a = probe.call("pointset.of", lab.PointSet.of, d, x["a"])
    b = probe.call("pointset.of", lab.PointSet.of, d, x["b"])
    l = lab.Direction.of(x["l"])
    reports = [
        probe.call(f"bounds.check_claim.{c}", lab.check_claim, c, a, b, l) for c in x["claims"]
    ]
    p = x["probe"]
    spec = lab.SearchSpec(
        d=d, n=p["n"], box=p["box"], mode="RANDOM", seed=p["seed"], trials=PROBE_TRIALS,
        claim=p["claim"], as_conjecture=p["as_conjecture"],
    )
    found = probe.call("search.random_probe", lab.random_probe, spec)
    return a, b, l, reports, found


def check_catalog(x, out, cache):
    a, b, l, reports, found = out
    d = x["d"]
    problems = []
    if sorted(a.points) != sorted(O.fracs(x["a"])) or sorted(b.points) != sorted(O.fracs(x["b"])):
        problems.append("PointSet.of changed the points")
    for claim, rep in zip(x["claims"], reports):
        if not O.claim_ok(rep, claim, d, x["a"], x["b"], l.vec):
            problems.append(f"{claim}: {rep.to_json()}")
    problems += _check_probe(found, x["probe"])
    return problems


def _check_probe(found, p):
    n, box = p["n"], p["box"]
    problems = []
    if found.candidates_examined != PROBE_TRIALS or not found.witnesses:
        problems.append("random_probe examined the wrong number of trials")
    for w in found.witnesses:
        pts = list(w.points)
        if len(pts) != n or O.diff_count(pts, pts) != found.best_value:
            problems.append(f"random_probe witness does not attain {found.best_value}")
        if any(not 0 <= c <= m for q in pts for c, m in zip(q, box)):
            problems.append("random_probe witness outside the box")
    if found.best_value < 2 * n - 1:
        problems.append("random_probe minimum below 2n-1")
    for v in found.violations:
        if v.verdict != "COUNTEREXAMPLE" or v.claim != p["claim"]:
            problems.append(f"bad violation record {v.to_json()}")
    return problems


# --------------------------------------------------------------------------
# extremal: large structured sets, many queries on each.

# (family, parameters).  At most 48 points, so that a run holds enough
# jobs for a tail percentile; the 160-point sets are named cases in cases.py.
EXTREMAL_SHAPES = [
    ("stanchescu_dk", (2, 10)),
    ("stanchescu_dk", (3, 8)),
    ("stanchescu_dk", (3, 12)),
    ("stanchescu_dk", (4, 5)),
    ("freiman_aps", (2, (12, 12))),
    ("freiman_aps", (3, (9, 9, 9))),
    ("freiman_aps", (4, (6, 6, 6, 6))),
    ("stan_doubling_tight", (2, 10)),
    ("stan_doubling_tight", (3, 10)),
    ("stan_doubling_tight", (4, 6)),
]
# claims whose hypotheses every member of the family meets
FAMILY_CLAIMS = {
    "stanchescu_dk": ("FREIMAN_SUM", "FHU_DIFF", "MAIN", "TWOPLANES_1"),
    "freiman_aps": ("FREIMAN_SUM", "FHU_DIFF", "MAIN", "DLINES"),
    "stan_doubling_tight": ("FREIMAN_SUM", "FHU_DIFF", "MAIN"),
}


def _random_affine(rng: random.Random, d: int):
    """(rows, shift) of x -> P U x / 2 + t: P a signed permutation, U
    unipotent lower triangular with entries in {-1, 0, 1}, t with entries in
    {1/3, 2/3}.  One fixed form keeps the cost of the rational arithmetic
    alike across seeds."""
    perm = list(range(d))
    rng.shuffle(perm)
    unip = [[1 if i == j else (rng.randint(-1, 1) if j < i else 0) for j in range(d)] for i in range(d)]
    rows = [[Fraction(rng.choice((-1, 1)) * unip[perm[i]][j], 2) for j in range(d)] for i in range(d)]
    shift = [Fraction(rng.randint(1, 2), 3) for _ in range(d)]
    return rows, shift


def setup_extremal(lab, probe, rng):
    members = []
    for i, (family, params) in enumerate(EXTREMAL_SHAPES):
        base = probe.call(f"constructions.{family}", getattr(lab, family), *params)
        members.append((i, family, params, base.points))

    def block(rng):
        # Each image job draws its own map: the cost of the queries on an
        # image depends on the map (the cover direction it selects), so a
        # run averages over many maps rather than one per member.
        order = [(m, image) for m in members for image in (False, True)]
        rng.shuffle(order)
        jobs = []
        for (i, family, params, points), image in order:
            data = {"shape": i, "family": family, "params": params, "points": points,
                    "map": _random_affine(rng, params[0]) if image else None,
                    "claims": FAMILY_CLAIMS[family]}
            jobs.append(Job(data, set_key=object(), size=len(points), queries=9 + len(data["claims"]),
                            rational=image, name=f"{family}{params}"))
        return jobs

    return block


def job_extremal(lab, probe, x):
    # Each job builds its own set from the member's points, so queries reuse
    # it within the job but no per-set cache carries over between jobs.
    a = probe.call("pointset.of", lab.PointSet.of, x["params"][0], x["points"])
    if x["map"] is not None:
        # the map arrives as matrix and shift, as a user would give it
        a = probe.call("pointset.apply_affine", lambda p, m: lab.apply_affine(p, lab.AffineMap.of(*m)), a, x["map"])
    out = {"a": a}
    out["sum"] = probe.call("pointset.sumset", lab.sumset, a, a)
    out["diff"] = probe.call("pointset.difference_set", lab.difference_set, a, a)
    out["dim"] = probe.call("pointset.affine_dimension", lab.affine_dimension, a)
    l, cover = out["cover"] = probe.call("incidence.min_line_cover", lab.min_line_cover, a)
    out["part"] = probe.call("incidence.line_partition", lab.line_partition, a, l)
    out["hs"] = probe.call("incidence.supporting_hyperplanes", lab.supporting_hyperplanes, a, l)
    h = out["major"] = probe.call("incidence.major_hyperplane", lab.major_hyperplane, a, l)
    out["slices"] = probe.call("incidence.hyperplane_slices", lab.hyperplane_slices, a, h)
    out["diag"] = probe.call("bounds.structure_diagnose", lab.structure_diagnose, a)
    out["claims"] = [
        probe.call(f"bounds.check_claim.{c}", lab.check_claim, c, a, None, l, as_conjecture=True)
        for c in x["claims"]
    ]
    return out


def _family_expectation(x):
    """Closed forms of the family, cross-checked by brute force."""
    family, params = x["family"], x["params"]
    pts = list(x["points"])
    d, n = params[0], len(pts)
    exp = {"n": n, "d": d, "sum": O.sum_count(pts, pts), "diff": O.diff_count(pts, pts)}
    exp["dir"], exp["cover"] = O.min_line_cover(pts)
    if family == "stanchescu_dk":
        key, value, size = "diff", O.main_bound(d, n), 2 * (d - 1) * params[1]
    elif family == "freiman_aps":
        key, value, size = "sum", O.freiman_bound(d, n), sum(params[1])
    else:
        key, value, size = "sum", O.stan_doubling_sum(d, n), 3 * params[1] + d - 2
    exp["closed_form_ok"] = n == size and exp[key] == value and O.affine_dim(pts) == d
    return exp


def check_extremal(x, out, cache):
    exp = cache.get(("extremal", x["shape"]))
    if exp is None:
        exp = cache[("extremal", x["shape"])] = _family_expectation(x)
    a = out["a"]
    pts = list(a.points)
    d = exp["d"]
    l, cover = out["cover"]
    problems = []
    if not exp["closed_form_ok"]:
        problems.append("family closed form disagrees with brute force")
    if x["map"] is not None:
        rows, shift = x["map"]
        want = [tuple(sum((r * c for r, c in zip(row, p)), t) for row, t in zip(rows, shift)) for p in x["points"]]
        if sorted(pts) != sorted(O.fracs(want)):
            problems.append("apply_affine image differs from the recomputed image")
    counts = (len(a), len(out["sum"]), len(out["diff"]), out["dim"], cover)
    if counts != (exp["n"], exp["sum"], exp["diff"], d, exp["cover"]):
        problems.append(f"(n, |A+A|, |A-A|, dim, cover) = {counts}, expected "
                        f"{(exp['n'], exp['sum'], exp['diff'], d, exp['cover'])}")
    if x["map"] is None and l.vec != exp["dir"]:
        problems.append(f"cover direction {l.vec} != {exp['dir']}")
    if O.line_count(pts, l.vec) != cover or out["part"].count != cover:
        problems.append("cover direction does not give the reported line count")
    if sum(out["part"].class_sizes()) != len(a):
        problems.append("line partition loses points")
    hs, h = out["hs"], out["major"]
    if not hs or h not in hs:
        problems.append("major hyperplane not among the supporting hyperplanes")
    for hp in hs:
        if O.dot(hp.normal, l.vec) != 0 or not O.supports(pts, hp.normal, hp.offset):
            problems.append(f"not a supporting hyperplane along l: {hp.to_json()}")
    on = [sum(1 for p in pts if O.dot(hp.normal, p) == hp.offset) for hp in hs]
    if hs and h in hs and on[hs.index(h)] != max(on):
        problems.append("major hyperplane does not hold the most points")
    slices = [(s.offset, list(part.points)) for s, part in out["slices"]]
    if not O.slices_partition(pts, h.normal, h.offset, slices):
        problems.append("hyperplane slices do not partition the set")
    diag = out["diag"]
    if (diag["size"], diag["line_cover"]["count"], sum(diag["slice_sizes"])) != (len(a), cover, len(a)):
        problems.append("structure_diagnose disagrees with the line cover or size")
    for claim, rep in zip(x["claims"], out["claims"]):
        if not rep.hypothesis_holds or rep.verdict != "CONSISTENT":
            problems.append(f"{claim} on the extremal family: {rep.verdict}")
        want_lhs = {"FREIMAN_SUM": exp["sum"]}.get(claim, exp["diff"])
        if rep.lhs != want_lhs or rep.margin != rep.lhs - rep.rhs:
            problems.append(f"{claim} lhs {rep.lhs} != {want_lhs}")
    return problems


# --------------------------------------------------------------------------
# certify: compression certificates from JSON input to replay.

CERTIFY_SHAPES = [(d, rational) for d in (2, 3) for rational in (False, False, True)]


def _certify_points(rng: random.Random, d: int):
    """Full-dimensional set on a few lines parallel to l, one line with at
    least two points, and in the plane exactly two lines (what `reduce` needs)."""
    while True:
        l = O.primitive(_nonzero_vec(rng, d))
        lines = 2 if d == 2 else rng.randint(3, 4)
        bases = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(lines)]
        if len({O.line_key(p, l) for p in bases}) < lines:
            continue
        pts = [
            tuple(c + t * v for c, v in zip(p, l))
            for p in bases
            for t in rng.sample(range(6), rng.randint(1, 4))
        ]
        if len(pts) > lines and O.affine_dim(pts) == d:
            return pts, l


def _pointset_json(d, pts) -> str:
    return json.dumps({"dim": d, "points": [[str(Fraction(c)) for c in p] for p in pts]})


def setup_certify(lab, probe, rng):
    def make(rng, shape):
        d, rational = shape
        a, l = _certify_points(rng, d)
        b = _distinct_points(rng, d, rng.randint(1, 5), 3)
        if rational:
            image = _rational_map(rng, d)
            a, b = image(a), image(b)
        normal = _nonzero_vec(rng, d)
        v = _nonzero_vec(rng, d)
        while O.dot(normal, v) == 0:
            v = _nonzero_vec(rng, d)
        data = {"d": d, "a": _pointset_json(d, a), "b": _pointset_json(d, b), "l": l,
                "normal": normal, "offset": rng.randint(-2, 2), "v": v}
        return Job(data, set_key=object(), size=len(a), queries=3, rational=rational, name=f"d={d} n={len(a)}")

    return lambda rng: _block(rng, CERTIFY_SHAPES, make)


def _trace_roundtrip(lab, trace):
    text = json.dumps(trace.to_json())
    return lab.CompressionTrace.from_json(json.loads(text)), len(text)


def job_certify(lab, probe, x):
    a = probe.call("pointset.from_json", lab.PointSet.from_json, json.loads(x["a"]))
    b = probe.call("pointset.from_json", lab.PointSet.from_json, json.loads(x["b"]))
    l = lab.Direction.of(x["l"])
    a2, b2, trace = probe.call("compression.reduce", lab.reduce, a, b, l)
    back, _ = probe.call("compression.trace_json", _trace_roundtrip, lab, trace)
    replayed = probe.call("compression.replay", back.replay, a)
    mirrored = probe.call("compression.apply_specs", back.apply_specs, b)
    spec = lab.CompressionSpec(lab.Hyperplane.of(x["normal"], x["offset"]), lab.Direction.of(x["v"]))
    pair = probe.call("compression.compress_pair", lab.compress_pair, a, b, spec)
    return a, b, a2, b2, trace, back, replayed, mirrored, pair


def check_certify(x, out, cache):
    a, b, a2, b2, trace, back, replayed, mirrored, pair = out
    d = x["d"]
    raw_a = [tuple(Fraction(c) for c in p) for p in json.loads(x["a"])["points"]]
    raw_b = [tuple(Fraction(c) for c in p) for p in json.loads(x["b"])["points"]]
    problems = []
    if sorted(a.points) != sorted(raw_a) or sorted(b.points) != sorted(raw_b):
        problems.append("from_json changed the points")
    before = O.sum_count(raw_a, raw_b)
    if (len(a2), len(b2)) != (len(raw_a), len(raw_b)):
        problems.append("reduce changed a cardinality")
    if O.sum_count(a2.points, b2.points) > before:
        problems.append("reduce grew the sumset")
    if not O.reduced_shape_ok(a2.points, O.line_count(raw_a, x["l"]), d):
        problems.append("reduce output is not in slab-plus-point form")
    if json.dumps(back.to_json()) != json.dumps(trace.to_json()):
        problems.append("trace JSON does not round-trip")
    if replayed.points != a2.points or mirrored.points != b2.points:
        problems.append("replay/apply_specs do not reproduce the reduced sets")
    p, q = pair
    if (len(p), len(q)) != (len(raw_a), len(raw_b)) or O.sum_count(p.points, q.points) > before:
        problems.append("compress_pair changed a cardinality or grew the sumset")
    if O.line_count(p.points, x["v"]) != O.line_count(raw_a, x["v"]):
        problems.append("compress_pair moved points between lines")
    return problems


WORKLOADS = {
    "exhaustive": (setup_exhaustive, job_exhaustive, check_exhaustive),
    "catalog": (setup_catalog, job_catalog, check_catalog),
    "extremal": (setup_extremal, job_extremal, check_extremal),
    "certify": (setup_certify, job_certify, check_certify),
}
