"""Exhaustive and seeded randomized search for difference-set minimisers.

Exhaustive enumeration walks n-subsets of a box lattice in lexicographic
order, keeps only canonical representatives (lexicographically minimal under
translation-to-origin, plus coordinate permutation when the box is uniform),
and prunes admissibly: differences only grow as points are added, so a
partial subset whose difference count already exceeds the best known value
cannot complete to a minimiser.  The global floor |A - A| >= 2|A| - 1 (order
the set by a generic linear functional) is implied and never over-prunes.
Enabling or disabling pruning therefore never changes the minimum or the
witness set, only the number of candidates examined.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from ._version import __version__
from .bounds import COUNTEREXAMPLE, ClaimReport, check_claim, CLAIM_IDS, _NEEDS_B, _NEEDS_D2, _NEEDS_L, _PLANAR
from .incidence import Direction
from .linalg import affine_rank
from .pointset import PointSet, difference_set

IntPoint = tuple[int, ...]

EXHAUSTIVE = "EXHAUSTIVE"
RANDOM = "RANDOM"


class BudgetExceededError(ValueError):
    def __init__(self, count: int, budget: int):
        super().__init__(f"enumeration would visit {count} subsets, budget is {budget}")
        self.count = count
        self.budget = budget


@dataclass(frozen=True)
class SearchSpec:
    d: int
    n: int
    box: tuple[int, ...]
    mode: str
    seed: int
    trials: int | None = None
    claim: str | None = None
    as_conjecture: bool = False
    require_full_dim: bool = False
    budget: int = 10**8
    witness_cap: int = 32

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ValueError("need d >= 1 and n >= 1")
        if len(self.box) != self.d or any(m < 0 for m in self.box):
            raise ValueError("box needs one nonnegative max coordinate per axis")
        if self.mode not in (EXHAUSTIVE, RANDOM):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.claim is not None and self.claim not in CLAIM_IDS:
            raise ValueError(f"unknown claim {self.claim!r}")
        if self.claim in _PLANAR and self.d != 2:
            raise ValueError(f"{self.claim} is a planar claim; got d = {self.d}")
        if self.claim in _NEEDS_D2 and self.d < 2:
            raise ValueError(f"{self.claim} needs ambient dimension >= 2; got d = {self.d}")
        if self.mode == RANDOM and (self.trials is None or self.trials < 1):
            raise ValueError("random mode needs trials >= 1")
        if self.n > self.volume():
            raise ValueError(f"cannot place {self.n} distinct points in a volume-{self.volume()} box")
        if self.require_full_dim and self.n <= self.d:
            raise ValueError(f"a {self.d}-dimensional set needs more than {self.d} points")
        if self.mode == EXHAUSTIVE and self.candidate_count() > self.budget:
            raise BudgetExceededError(self.candidate_count(), self.budget)

    def volume(self) -> int:
        v = 1
        for m in self.box:
            v *= m + 1
        return v

    def candidate_count(self) -> int:
        return comb(self.volume(), self.n)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "box": list(self.box),
            "mode": self.mode,
            "seed": self.seed,
            "trials": self.trials,
            "claim": self.claim,
            "as_conjecture": self.as_conjecture,
            "require_full_dim": self.require_full_dim,
            "budget": self.budget,
            "witness_cap": self.witness_cap,
        }


@dataclass(frozen=True)
class SearchResult:
    spec: SearchSpec
    best_value: int
    witnesses: tuple[PointSet, ...]
    candidates_examined: int
    violations: tuple[ClaimReport, ...]

    def to_json(self) -> dict:
        return {
            "version": __version__,
            "spec": self.spec.to_json(),
            "seed": self.spec.seed,
            "best_value": self.best_value,
            "witnesses": [w.to_json() for w in self.witnesses],
            "candidates_examined": self.candidates_examined,
            "violations": [v.to_json() for v in self.violations],
        }


def lattice_points(box: Sequence[int]) -> list[IntPoint]:
    return sorted(itertools.product(*(range(m + 1) for m in box)))


def canonical_form(points: Iterable[IntPoint], allow_permutations: bool = True) -> tuple[IntPoint, ...]:
    """Lexicographically minimal image under translation-to-origin and
    (optionally) coordinate permutation.  |A - A| is invariant under both, so
    restricting a search to canonical representatives preserves the minimum.
    """
    pts = list(points)
    d = len(pts[0])
    # translating each coordinate's minimum to 0 commutes with permuting coordinates
    mins = [min(col) for col in zip(*pts)]
    shifted = [tuple(c - m for c, m in zip(p, mins)) for p in pts]
    perms = itertools.permutations(range(d)) if allow_permutations else [tuple(range(d))]
    return min(tuple(sorted(tuple(p[i] for i in perm) for p in shifted)) for perm in perms)


def diff_count(points: Sequence[IntPoint]) -> int:
    diffs = {tuple(a - b for a, b in zip(p, q)) for p in points for q in points}
    return len(diffs)


def _seeded_rng(key: str) -> random.Random:
    """A generator seeded from the first 8 bytes of sha256(key)."""
    digest = hashlib.sha256(key.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _full_dim(points: Sequence[IntPoint], d: int) -> bool:
    return affine_rank(points) == d


def _check_candidate_claim(spec: SearchSpec, points: Sequence[IntPoint], rng: random.Random | None) -> ClaimReport:
    a = PointSet.of(spec.d, points)
    b = None
    l = None
    if spec.claim in _NEEDS_B:
        if rng is None:
            raise ValueError(f"claim {spec.claim} needs operand B, which exhaustive mode does not generate")
        size = rng.randint(1, spec.n)
        b = PointSet.of(spec.d, _sample_points(rng, spec.box, size))
    if spec.claim in _NEEDS_L:
        if rng is None:
            raise ValueError(f"claim {spec.claim} needs a line direction, which exhaustive mode does not generate")
        l = _random_direction(rng, spec.d)
    return check_claim(spec.claim, a, b, l, as_conjecture=spec.as_conjecture)


def _sample_points(rng: random.Random, box: Sequence[int], count: int) -> list[IntPoint]:
    ranges = [m + 1 for m in box]
    volume = 1
    for r in ranges:
        volume *= r
    indices = rng.sample(range(volume), count)
    points = []
    for idx in indices:
        coords = []
        for r in reversed(ranges):
            idx, c = divmod(idx, r)
            coords.append(c)
        points.append(tuple(reversed(coords)))
    return points


def _random_direction(rng: random.Random, d: int) -> Direction:
    while True:
        vec = tuple(rng.randint(-3, 3) for _ in range(d))
        if any(vec):
            return Direction.of(vec)


def exhaustive_min_diff(spec: SearchSpec, *, prune: bool = True, threads: int = 1) -> SearchResult:
    """Exact minimum of |A - A| over canonical n-subsets of the box lattice.

    Deterministic and seed-independent.  With threads > 1 the top-level
    first-point blocks run in separate processes, each with an independent
    pruning bound; the merge is a deterministic min-reduce, so the minimum
    and witness set match the sequential run exactly (candidate counts are
    per-block and may differ from a shared-bound sequential run).
    """
    if spec.mode != EXHAUSTIVE:
        raise ValueError("exhaustive_min_diff needs an EXHAUSTIVE spec")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if spec.claim is not None and (spec.claim in _NEEDS_B or spec.claim in _NEEDS_L):
        raise ValueError(f"claim {spec.claim} needs operands exhaustive mode does not generate")
    points = lattice_points(spec.box)
    first_max = len(points) - spec.n + 1
    if threads > 1 and first_max > 1:
        blocks = [(spec, prune, i, i + 1) for i in range(first_max)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(_search_block, blocks))
    else:
        partials = [_search_block((spec, prune, 0, first_max))]
    best = min(p[0] for p in partials)
    if best > len(points) * len(points):
        raise ValueError("no candidate subset satisfied the dimension requirement")
    witnesses: set[tuple[IntPoint, ...]] = set()
    examined = 0
    violations: list[ClaimReport] = []
    for value, wits, count, viols in partials:
        examined += count
        violations.extend(viols)
        if value == best:
            witnesses.update(wits)
    return _search_result(spec, best, witnesses, examined, violations)


def _search_result(spec: SearchSpec, best: int, witnesses: set, examined: int, violations: list) -> SearchResult:
    """The result with the first witness_cap witnesses, each re-checked to attain best."""
    witness_sets = tuple(PointSet.of(spec.d, w) for w in sorted(witnesses)[: spec.witness_cap])
    for w in witness_sets:
        if len(difference_set(w, w)) != best:
            raise RuntimeError(f"witness {w.to_json()} does not have |W - W| = {best}")
        if spec.require_full_dim and affine_rank(w.points) != spec.d:
            raise RuntimeError(f"witness {w.to_json()} does not span dimension {spec.d}")
    return SearchResult(spec, best, witness_sets, examined, tuple(violations))


def _search_block(args) -> tuple[int, set[tuple[IntPoint, ...]], int, list[ClaimReport]]:
    spec, prune, first_lo, first_hi = args
    points = lattice_points(spec.box)
    total = len(points)
    uniform = len(set(spec.box)) == 1
    use_prune = prune and spec.claim is None

    best = total * total + 1
    witnesses: set[tuple[IntPoint, ...]] = set()
    examined = 0
    violations: list[ClaimReport] = []
    chosen: list[IntPoint] = []
    diffs: set[IntPoint] = {(0,) * spec.d}
    added_stack: list[list[IntPoint]] = []

    def push(p: IntPoint) -> None:
        added = []
        for q in chosen:
            for delta in (
                tuple(a - b for a, b in zip(p, q)),
                tuple(b - a for a, b in zip(p, q)),
            ):
                if delta not in diffs:
                    diffs.add(delta)
                    added.append(delta)
        chosen.append(p)
        added_stack.append(added)

    def pop() -> None:
        chosen.pop()
        for delta in added_stack.pop():
            diffs.discard(delta)

    def walk(start: int) -> None:
        nonlocal best, examined
        if len(chosen) == spec.n:
            examined += 1
            if spec.require_full_dim and not _full_dim(chosen, spec.d):
                return
            ordered = tuple(sorted(chosen))
            if canonical_form(ordered, uniform) != ordered:
                return
            if spec.claim is not None:
                report = _check_candidate_claim(spec, ordered, None)
                if report.verdict == COUNTEREXAMPLE:
                    violations.append(report)
            value = len(diffs)
            if value < best:
                best = value
                witnesses.clear()
            if value == best:
                witnesses.add(ordered)
            return
        remaining = spec.n - len(chosen)
        lo = first_lo if not chosen else start
        hi = first_hi if not chosen else total - remaining + 1
        for idx in range(lo, hi):
            push(points[idx])
            if not (use_prune and len(diffs) > best):
                walk(idx + 1)
            pop()

    walk(0)
    return best, witnesses, examined, violations


def random_probe(spec: SearchSpec) -> SearchResult:
    """Uniformly sample subsets, track the minimum and any claim violations.

    Trial i draws its generator from sha256(seed/i), so results are
    reproducible and independent of evaluation order.
    """
    if spec.mode != RANDOM:
        raise ValueError("random_probe needs a RANDOM spec")
    uniform = len(set(spec.box)) == 1
    best = None
    witnesses: set[tuple[IntPoint, ...]] = set()
    violations: list[ClaimReport] = []
    examined = 0
    for trial in range(spec.trials):
        rng = _seeded_rng(f"{spec.seed}/{trial}")
        pts = _sample_points(rng, spec.box, spec.n)
        if spec.require_full_dim:
            attempts = 0
            while not _full_dim(pts, spec.d):
                attempts += 1
                if attempts > 500:
                    raise ValueError("could not sample a full-dimensional subset; box too thin?")
                pts = _sample_points(rng, spec.box, spec.n)
        examined += 1
        value = diff_count(pts)
        canon = canonical_form(pts, uniform)
        if best is None or value < best:
            best = value
            witnesses = {canon}
        elif value == best:
            witnesses.add(canon)
        if spec.claim is not None:
            report = _check_candidate_claim(spec, sorted(pts), rng)
            if report.verdict == COUNTEREXAMPLE:
                violations.append(report)
    return _search_result(spec, best, witnesses, examined, violations)
