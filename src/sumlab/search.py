"""Exhaustive and seeded randomized search for difference-set minimisers.

Exhaustive enumeration walks n-subsets of a box lattice in lexicographic
order and keeps only canonical representatives, those equal to their
`canonical_form`: lexicographically minimal under translation-to-origin,
plus coordinate permutation when the box is uniform.  With pruning on, three
admissible cuts skip subtrees; none can remove a canonical subset whose
|A - A| is at most the best value found, so the minimum and the witness set
are those of the full walk:

- the first point has x_0 = 0.  A canonical set has each coordinate's
  minimum at 0, and its first point, the lexicographic minimum, holds the
  minimum x_0;
- differences only grow as points are added, so a partial subset whose
  difference count already exceeds the best value cannot complete to a
  minimiser;
- the look-ahead: lexicographic order is compatible with translation, so a
  later point p makes p - head[0] larger than every difference of the
  chosen prefix head, and each of the r points still to place adds at least
  the two new differences ±(p - head[0]).  A partial subset with
  |S - S| + 2r > best is cut; ties survive, so tied witnesses are kept.

The global floor |A - A| >= 2|A| - 1 is implied by the look-ahead.  The walk
carries two ints over the packed codes, with top the largest code: the
difference set is symmetric, so `pos` has bit δ for each positive difference
δ of the prefix, and `down` has bit top - q for each chosen code q.  A new
code c exceeds every chosen one, so adding it gives pos | (down << c) >> top,
and |S - S| = 2 popcount(pos) + 1; interior nodes and the last level count
alike, and nothing is undone on the way back.  Pruning on or off never
changes the minimum or the witness set, only the number of candidates examined.

The walk chooses lattice indices, and a leaf decides canonicity on them
without building a permuted copy of its points:

- translation: a set is translated to the origin exactly when every axis
  holds a point with coordinate 0.  Each lattice point has a bitmask of its
  zero axes, the walk ORs them along the path, and a leaf whose mask misses
  an axis is rejected;
- permutation (uniform boxes only): under the radix m + 1 index order is
  lexicographic point order (`pointset._pack`), and a permuted box point is
  again a box point, whose index is the dot product of the point with one
  weight vector per permutation.  A set is canonical when, for every
  non-identity permutation, the sorted indices of its permuted points are
  not less than the chosen index tuple.

Only canonical leaves are ranked (`require_full_dim`), checked against a
claim or kept as witnesses; every leaf the cuts leave is counted in the
candidates examined before either test.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from math import comb, prod
from operator import mul, sub
from typing import Iterable, Sequence

from ._version import __version__
from .bounds import COUNTEREXAMPLE, ClaimReport, _NEEDS_B, _NEEDS_L, check_claim, check_domain
from .incidence import Direction
from .linalg import affine_rank
from .pointset import PointSet, _from_integers, _from_sorted, _pack, _unpack, affine_dimension, difference_count

IntPoint = tuple[int, ...]

EXHAUSTIVE = "EXHAUSTIVE"
RANDOM = "RANDOM"
WITNESS_CAP = 32


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

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ValueError("need d >= 1 and n >= 1")
        if len(self.box) != self.d or any(m < 0 for m in self.box):
            raise ValueError("box needs one nonnegative max coordinate per axis")
        if self.mode not in (EXHAUSTIVE, RANDOM):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.claim is not None:
            check_domain(self.claim, self.d)
        if self.mode == EXHAUSTIVE and (self.claim in _NEEDS_B or self.claim in _NEEDS_L):
            raise ValueError(f"claim {self.claim} needs operands exhaustive mode does not generate")
        if self.mode == RANDOM and (self.trials is None or self.trials < 1):
            raise ValueError("random mode needs trials >= 1")
        if self.n > self.volume():
            raise ValueError(f"cannot place {self.n} distinct points in a volume-{self.volume()} box")
        if self.require_full_dim and self.n <= self.d:
            raise ValueError(f"a {self.d}-dimensional set needs more than {self.d} points")
        if self.require_full_dim and 0 in self.box:
            raise ValueError(f"box extent 0 on axis {self.box.index(0)}: a flat box has no full-dimensional subset")
        if self.mode == EXHAUSTIVE and self.candidate_count() > self.budget:
            raise BudgetExceededError(self.candidate_count(), self.budget)

    def volume(self) -> int:
        return prod(m + 1 for m in self.box)

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
            "witness_cap": WITNESS_CAP,
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
    """The points of the box in lexicographic order: the points with codes 0, 1, ... under
    the radix m + 1 of each axis (`pointset._unpack`)."""
    ranges = [m + 1 for m in box]
    return _unpack(range(prod(ranges)), [0] * len(box), ranges)


def canonical_form(points: Iterable[IntPoint], allow_permutations: bool = True) -> tuple[IntPoint, ...]:
    """Lexicographically minimal image under translation-to-origin and
    (optionally) coordinate permutation.  |A - A| is invariant under both, so
    restricting a search to canonical representatives preserves the minimum.

    This is the definition of a canonical set.  `random_probe` stores its
    witnesses in this form; the exhaustive walk decides the same equality
    on lattice indices (module docstring) and never calls it.
    """
    pts = list(points)
    d = len(pts[0])
    # translating each coordinate's minimum to 0 commutes with permuting coordinates
    mins = [min(col) for col in zip(*pts)]
    shifted = [tuple(c - m for c, m in zip(p, mins)) for p in pts]
    perms = itertools.permutations(range(d)) if allow_permutations else [tuple(range(d))]
    return min(tuple(sorted(tuple(p[i] for i in perm) for p in shifted)) for perm in perms)


def _seeded_rng(key: str) -> random.Random:
    """A generator seeded from the first 8 bytes of sha256(key)."""
    digest = hashlib.sha256(key.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _check_candidate_claim(spec: SearchSpec, a: PointSet, rng: random.Random | None) -> ClaimReport:
    b = None
    l = None
    if spec.claim in _NEEDS_B:
        size = rng.randint(1, spec.n)
        b = _from_integers(spec.d, 1, _sample_points(rng, spec.box, size))
    if spec.claim in _NEEDS_L:
        l = _random_direction(rng, spec.d)
    return check_claim(spec.claim, a, b, l, as_conjecture=spec.as_conjecture)


def _sample_points(rng: random.Random, box: Sequence[int], count: int) -> list[IntPoint]:
    """count distinct box points, drawn as distinct codes of `lattice_points`."""
    ranges = [m + 1 for m in box]
    return _unpack(rng.sample(range(prod(ranges)), count), [0] * len(box), ranges)


def _random_direction(rng: random.Random, d: int) -> Direction:
    while True:
        vec = tuple(rng.randint(-3, 3) for _ in range(d))
        if any(vec):
            return Direction.of(vec)


def exhaustive_min_diff(spec: SearchSpec, *, prune: bool = True, threads: int = 1) -> SearchResult:
    """Exact minimum of |A - A| over canonical n-subsets of the box lattice.

    Deterministic and seed-independent.  The walk runs in one process, so
    threads must be 1.
    """
    if spec.mode != EXHAUSTIVE:
        raise ValueError("exhaustive_min_diff needs an EXHAUSTIVE spec")
    if threads != 1:
        raise ValueError(f"the exhaustive walk runs in one process, so threads must be 1; got {threads}")
    points = lattice_points(spec.box)
    # differences of box points have |δ_i| <= box[i], so distinct ones have distinct codes
    codes = _pack(points, [2 * m + 1 for m in spec.box])
    total = len(points)
    top = codes[-1]
    # bit k of zeros[i] is set when lattice point i has coordinate 0 on axis k
    zeros = [sum(1 << k for k, c in enumerate(p) if c == 0) for p in points]
    every_axis = (1 << spec.d) - 1
    # under the radix m + 1 of a uniform box a point's index is its dot product with place, and
    # moving each axis i to position σ(i) makes it the dot product with (place[σ(0)], ..., place[σ(d-1)])
    place = [(spec.box[0] + 1) ** (spec.d - 1 - j) for j in range(spec.d)]
    weights = list(itertools.permutations(place))[1:] if len(set(spec.box)) == 1 else []
    use_prune = prune and spec.claim is None
    # lattice_points is lexicographic, so its first total // (box[0] + 1) points have x_0 = 0
    first_stop = total // (spec.box[0] + 1) if use_prune else total

    best = total * total + 1
    witnesses: set[tuple[int, ...]] = set()
    examined = 0
    violations: list[ClaimReport] = []

    def leaf(chosen: tuple[int, ...], value: int) -> None:
        nonlocal best
        pts = [points[i] for i in chosen]
        # no permuted copy sorts below the chosen indices, which sort as the points do
        for w in weights:
            if tuple(sorted([sum(map(mul, p, w)) for p in pts])) < chosen:
                return
        if spec.claim is None:
            if spec.require_full_dim and affine_rank(pts) != spec.d:
                return
        else:
            # the leaf's points are in index order, which is lexicographic; the set is built once,
            # so check_claim's rank of it is a memo hit
            a = _from_sorted(spec.d, 1, pts)
            if spec.require_full_dim and affine_dimension(a) != spec.d:
                return
            report = _check_candidate_claim(spec, a, None)
            if report.verdict == COUNTEREXAMPLE:
                violations.append(report)
        if value < best:
            best = value
            witnesses.clear()
        if value == best:
            witnesses.add(chosen)

    def walk(start: int, head: tuple[int, ...], axes: int, pos: int, down: int) -> None:
        nonlocal examined
        remaining = spec.n - len(head)
        stop = total - remaining + 1 if head else min(total - remaining + 1, first_stop)
        # each later point p adds at least ±(p - head[0]), larger than every difference so far
        later = 2 * (remaining - 1)
        for idx in range(start, stop):
            c = codes[idx]
            grown = pos | down << c >> top
            size = 2 * grown.bit_count() + 1
            if use_prune and size + later > best:
                continue
            if later:
                walk(idx + 1, head + (idx,), axes | zeros[idx], grown, down | 1 << top - c)
            else:
                examined += 1
                # translation-canonical: every axis holds a point with coordinate 0
                if axes | zeros[idx] == every_axis:
                    leaf(head + (idx,), size)

    try:
        walk(0, (), 0, 0, 0)
    except RecursionError:
        raise ValueError(f"the exhaustive walk recurses once per point and cannot reach n = {spec.n}") from None
    if not witnesses:
        # SearchSpec refuses every spec without a full-dimensional canonical n-subset, so this is a bug
        raise RuntimeError("no candidate subset satisfied the dimension requirement")
    # index order is lexicographic point order, so the first witnesses by index are the first by points
    first = sorted(witnesses)[:WITNESS_CAP]
    return _search_result(spec, best, [tuple(points[i] for i in w) for w in first], examined, violations)


def _search_result(
    spec: SearchSpec, best: int, witnesses: Iterable[tuple[IntPoint, ...]], examined: int, violations: list
) -> SearchResult:
    """The result with the first WITNESS_CAP witnesses, each re-checked to attain best.

    Both callers hand over each witness as spec.n integer points in strictly increasing order
    (the walk's index order, `canonical_form`'s sorted tuples), which `_from_sorted` and the
    half count of `_tuple_diff_count` trust, so that order is checked first."""
    witness_sets = []
    for w in sorted(witnesses)[:WITNESS_CAP]:
        if len(w) != spec.n or any(p >= q for p, q in zip(w, w[1:])):
            raise RuntimeError(f"witness {list(w)} is not {spec.n} strictly increasing points")
        a = _from_sorted(spec.d, 1, w)
        if _tuple_diff_count(w) != best:
            raise RuntimeError(f"witness {a.to_json()} does not have |W - W| = {best}")
        if spec.require_full_dim and affine_rank(w) != spec.d:
            raise RuntimeError(f"witness {a.to_json()} does not span dimension {spec.d}")
        witness_sets.append(a)
    return SearchResult(spec, best, tuple(witness_sets), examined, tuple(violations))


def _tuple_diff_count(pts: Sequence[IntPoint]) -> int:
    """|A - A| on a nonempty tuple of plain tuples in strictly increasing order: each p - q with
    q before p is lexicographically positive, its negation is negative, and 0 is the one
    difference left, so |A - A| = 2 |{p - q : q before p}| + 1.  The witness re-check shares no
    code with the counts it checks."""
    return 2 * len({tuple(map(sub, p, q)) for q, p in itertools.combinations(pts, 2)}) + 1


def random_probe(spec: SearchSpec) -> SearchResult:
    """Uniformly sample subsets, track the minimum and any claim violations.

    Trial i draws its generator from sha256(seed/i), so results are
    reproducible and independent of evaluation order.
    """
    if spec.mode != RANDOM:
        raise ValueError("random_probe needs a RANDOM spec")
    uniform = len(set(spec.box)) == 1

    def draw(rng: random.Random) -> PointSet:
        # a trial's set is built once, so check_claim's rank and count of it are memo hits
        return _from_integers(spec.d, 1, _sample_points(rng, spec.box, spec.n))

    best = None
    # the samples that attain best, canonicalised once best is final
    samples: list[PointSet] = []
    violations: list[ClaimReport] = []
    examined = 0
    for trial in range(spec.trials):
        rng = _seeded_rng(f"{spec.seed}/{trial}")
        sample = draw(rng)
        if spec.require_full_dim:
            attempts = 0
            while affine_dimension(sample) != spec.d:
                attempts += 1
                if attempts > 500:
                    raise ValueError("could not sample a full-dimensional subset; box too thin?")
                sample = draw(rng)
        examined += 1
        value = difference_count(sample, sample)
        if best is None or value < best:
            best = value
            samples.clear()
        if value == best:
            samples.append(sample)
        if spec.claim is not None:
            report = _check_candidate_claim(spec, sample, rng)
            if report.verdict == COUNTEREXAMPLE:
                violations.append(report)
    canonical = {canonical_form(s.ints, uniform) for s in samples}
    return _search_result(spec, best, canonical, examined, violations)
