"""The inequality catalog: exact bound formulas and instance-level claim checks.

Each claim bundles an arity, a hypothesis predicate, a conclusion predicate
and a bound formula, so callers can sweep the catalog generically.  All
evaluation is exact rational arithmetic; comparisons against thresholds of
the form  base - coeff*sqrt(n)  are decided by integer squaring, never by
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .incidence import Direction, hyperplane_slices, line_partition, major_hyperplane, min_line_cover
from .pointset import PointSet, affine_dimension, difference_set, format_rational, sumset

CLAIM_IDS = (
    "FREIMAN_SUM",
    "FHU_DIFF",
    "RUZSA_ASYM",
    "GS_LINES",
    "LEMMA_BASE_2D",
    "ASYM_THM",
    "STAN_DOUBLING",
    "DLINES",
    "TWOPLANES_1",
    "LINES_4D",
    "MAIN",
)

CONSISTENT = "CONSISTENT"
VACUOUS = "VACUOUS"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
BELOW_GUARANTEED_SIZE = "BELOW_GUARANTEED_SIZE"


@dataclass(frozen=True)
class ClaimReport:
    """Evaluation of one named claim on one instance."""

    claim: str
    instance: str
    hypothesis_holds: bool
    conclusion_holds: bool
    lhs: Fraction
    rhs: Fraction
    margin: Fraction
    verdict: str

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "instance": self.instance,
            "hypothesis_holds": self.hypothesis_holds,
            "conclusion_holds": self.conclusion_holds,
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
            "margin": format_rational(self.margin),
            "verdict": self.verdict,
        }


def asym_error_constant(d: int) -> int:
    """(d+2)^(2^d - 2), the additive error term of the asymmetric covering claim."""
    if d < 2:
        raise ValueError("need d >= 2")
    return (d + 2) ** (2**d - 2)


def below_sqrt_threshold(count, base, coeff, radicand: int) -> bool:
    """Decide  count < base - coeff*sqrt(radicand)  exactly (coeff, radicand >= 0).

    Equivalent to  diff > 0 and diff^2 > coeff^2 * radicand  with
    diff = base - count; squaring is valid because both sides of
    coeff*sqrt(radicand) < diff are then nonnegative.
    """
    coeff = Fraction(coeff)
    if coeff < 0 or radicand < 0:
        raise ValueError("radical comparison needs coeff >= 0 and radicand >= 0")
    diff = Fraction(base) - Fraction(count)
    if diff <= 0:
        return False
    return diff * diff > coeff * coeff * radicand


def _need(params: dict, *names: str) -> list:
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise ValueError(f"missing parameters: {', '.join(missing)}")
    return [params[n] for n in names]


def bound_value(claim: str, **params) -> Fraction:
    """Exact rational value of a claim's bound formula.

    Parameters by name: d (dimension), n (|A|), m (|B|), r1, r2 (line counts),
    a1 (|A_1|), eps and c_d (the two user-supplied constants of LINES_4D).
    For the sqrt-threshold claims ASYM_THM and LEMMA_BASE_2D the returned
    value is the rational part only; the full strict comparison lives in
    below_sqrt_threshold (the subtracted radical is 2^(d+1)*sqrt(n), resp.
    5*sqrt(n)).
    """
    if claim not in CLAIM_IDS:
        raise ValueError(f"unknown claim {claim!r}")
    p = params
    if claim in ("FREIMAN_SUM", "FHU_DIFF"):
        d, n = _need(p, "d", "n")
        return Fraction((d + 1) * n) - Fraction(d * (d + 1), 2)
    if claim == "RUZSA_ASYM":
        d, n, m = _need(p, "d", "n", "m")
        return Fraction(n + d * m) - Fraction(d * (d + 1), 2)
    if claim == "GS_LINES":
        n, r1, m, r2 = _need(p, "n", "r1", "m", "r2")
        return (Fraction(n, r1) + Fraction(m, r2) - 1) * (r1 + r2 - 1)
    if claim == "LEMMA_BASE_2D":
        n, m = _need(p, "n", "m")
        return Fraction(n) + Fraction(7 * m, 3)
    if claim == "ASYM_THM":
        d, n, m = _need(p, "d", "n", "m")
        return Fraction(n) + (d + Fraction(1, 3)) * m - asym_error_constant(d)
    if claim == "STAN_DOUBLING":
        d, n = _need(p, "d", "n")
        return (d + Fraction(4, 3)) * n - Fraction(3 * d * d + 5 * d + 8, 6)
    if claim == "DLINES":
        d, n = _need(p, "d", "n")
        return (2 * d - 2 + Fraction(2, d)) * n - (d * d - d + 1)
    if claim == "TWOPLANES_1":
        d, n, a1 = _need(p, "d", "n", "a1")
        return Fraction((2 * d - 2) * n) + Fraction(2, d - 1) * a1 - (2 * d * d - 4 * d + 3)
    if claim == "LINES_4D":
        d, n = _need(p, "d", "n")
        if p.get("eps") is not None and p.get("c_d") is not None:
            return (2 * d - 2 + Fraction(1, d - 1) + Fraction(p["eps"])) * n - Fraction(p["c_d"])
        return _main_bound(d, n)
    if claim == "MAIN":
        d, n = _need(p, "d", "n")
        return _main_bound(d, n)
    raise AssertionError(claim)


def _main_bound(d: int, n: int) -> Fraction:
    if d < 2:
        raise ValueError("bound needs d >= 2")
    return (2 * d - 2 + Fraction(1, d - 1)) * n - (2 * d * d - 4 * d + 3)


_NEEDS_B = {"RUZSA_ASYM", "GS_LINES", "LEMMA_BASE_2D", "ASYM_THM"}
_NEEDS_L = {"GS_LINES", "LEMMA_BASE_2D", "ASYM_THM", "TWOPLANES_1", "LINES_4D"}
_PLANAR = {"GS_LINES", "LEMMA_BASE_2D"}
_NEEDS_D2 = {"MAIN", "STAN_DOUBLING", "ASYM_THM", "DLINES", "TWOPLANES_1", "LINES_4D"}


def check_claim(
    claim: str,
    a: PointSet,
    b: PointSet | None = None,
    l: Direction | None = None,
    *,
    as_conjecture: bool = False,
) -> ClaimReport:
    """Evaluate hypothesis and conclusion of one claim exactly on an instance.

    Verdicts: VACUOUS when the hypothesis fails; CONSISTENT when the
    conclusion holds; otherwise COUNTEREXAMPLE, except that size-conditional
    statements (MAIN as a theorem, STAN_DOUBLING below its explicit |A| cutoff,
    LINES_4D) downgrade to BELOW_GUARANTEED_SIZE.  MAIN with as_conjecture
    set is unconditional and can report COUNTEREXAMPLE.
    """
    if claim not in CLAIM_IDS:
        raise ValueError(f"unknown claim {claim!r}")
    if claim in _NEEDS_B and b is None:
        raise ValueError(f"{claim} needs operand B")
    if claim in _NEEDS_L and l is None:
        raise ValueError(f"{claim} needs a line direction")
    if claim in _PLANAR and a.dim != 2:
        raise ValueError(f"{claim} is a planar claim; got ambient dimension {a.dim}")
    if claim in _NEEDS_D2 and a.dim < 2:
        raise ValueError(f"{claim} needs ambient dimension >= 2")

    d = a.dim
    n = len(a)
    full_dim = affine_dimension(a) == d
    guarded = False
    desc = [f"A: {n} points in dim {d}"]
    if b is not None:
        desc.append(f"B: {len(b)} points")
    if l is not None:
        desc.append(f"l: {','.join(str(x) for x in l.vec)}")
    if claim == "MAIN" and as_conjecture:
        desc.append("as conjecture")

    if claim == "FREIMAN_SUM":
        hyp = full_dim
        lhs = Fraction(len(sumset(a, a)))
        rhs = bound_value(claim, d=d, n=n)
        concl = lhs >= rhs
    elif claim == "FHU_DIFF":
        hyp = full_dim
        lhs = Fraction(len(difference_set(a, a)))
        rhs = bound_value(claim, d=d, n=n)
        concl = lhs >= rhs
    elif claim == "MAIN":
        hyp = full_dim
        lhs = Fraction(len(difference_set(a, a)))
        rhs = bound_value(claim, d=d, n=n)
        concl = lhs >= rhs
        guarded = not as_conjecture
    elif claim == "RUZSA_ASYM":
        assert b is not None
        total = sumset(a, b)
        hyp = len(a) >= len(b) and affine_dimension(total) == d
        lhs = Fraction(len(total))
        rhs = bound_value(claim, d=d, n=n, m=len(b))
        concl = lhs >= rhs
    elif claim == "GS_LINES":
        assert b is not None and l is not None
        r1 = line_partition(a, l).count
        r2 = line_partition(b, l).count
        hyp = True
        lhs = Fraction(len(sumset(a, b)))
        rhs = bound_value(claim, n=n, r1=r1, m=len(b), r2=r2)
        concl = lhs >= rhs
    elif claim == "LEMMA_BASE_2D":
        assert b is not None and l is not None
        r1 = line_partition(a, l).count
        hyp = len(a) >= len(b) and below_sqrt_threshold(
            len(sumset(a, b)), bound_value(claim, n=n, m=len(b)), 5, n
        )
        lhs = Fraction(r1)
        rhs = Fraction(n, 4)
        concl = r1 <= 2 or lhs > rhs
    elif claim == "ASYM_THM":
        assert b is not None and l is not None
        r = line_partition(a, l).count
        hyp = full_dim and len(a) >= len(b) and below_sqrt_threshold(
            len(sumset(a, b)), bound_value(claim, d=d, n=n, m=len(b)), 2 ** (d + 1), n
        )
        lhs = Fraction(r)
        rhs = Fraction(n, 4)
        concl = r == d or lhs > rhs
    elif claim == "STAN_DOUBLING":
        doubling = len(sumset(a, a))
        hyp = full_dim and Fraction(doubling) < bound_value(claim, d=d, n=n)
        _, cover = min_line_cover(a) if len(a) >= 2 else (None, 1)
        lhs = Fraction(cover)
        rhs = Fraction(d)
        concl = cover <= d
        guarded = n <= 3 * 4**d
    elif claim == "DLINES":
        _, cover = min_line_cover(a) if len(a) >= 2 else (None, 1)
        hyp = full_dim and cover <= d
        lhs = Fraction(len(difference_set(a, a)))
        rhs = bound_value(claim, d=d, n=n)
        concl = lhs >= rhs
    elif claim == "TWOPLANES_1":
        assert l is not None
        hyp, a1_size = _twoplanes_hypothesis(a, l)
        lhs = Fraction(len(difference_set(a, a)))
        rhs = bound_value(claim, d=d, n=n, a1=a1_size)
        concl = lhs >= rhs
    elif claim == "LINES_4D":
        assert l is not None
        sizes = line_partition(a, l).class_sizes()
        hyp = full_dim and all(size >= 4 * d for size in sizes)
        lhs = Fraction(len(difference_set(a, a)))
        rhs = bound_value(claim, d=d, n=n)
        concl = lhs >= rhs
        guarded = True
    else:
        raise AssertionError(claim)

    verdict = _verdict(hyp, concl, guarded)
    return ClaimReport(claim, "; ".join(desc), hyp, concl, lhs, rhs, lhs - rhs, verdict)


def _verdict(hypothesis: bool, conclusion: bool, guarded: bool) -> str:
    """COUNTEREXAMPLE only for an unconditional claim with true hypothesis and
    false conclusion; size-conditional claims downgrade to BELOW_GUARANTEED_SIZE."""
    if not hypothesis:
        return VACUOUS
    if conclusion:
        return CONSISTENT
    return BELOW_GUARANTEED_SIZE if guarded else COUNTEREXAMPLE


def _twoplanes_hypothesis(a: PointSet, l: Direction) -> tuple[bool, int]:
    """r = 2 slabs for the major hyperplane, dim(A_1) = d - 1, covered by d - 1 lines.

    The major slice is recomputed here rather than trusted from the caller.
    """
    d = a.dim
    if affine_dimension(a) != d:
        return False, 0
    try:
        h = major_hyperplane(a, l)
    except ValueError:
        return False, 0
    slices = hyperplane_slices(a, h)
    if len(slices) != 2:
        return False, 0
    a1 = slices[0][1]
    if affine_dimension(a1) != d - 1:
        return False, len(a1)
    s = line_partition(a1, l).count
    return s == d - 1, len(a1)


def structure_diagnose(a: PointSet) -> dict:
    """Descriptive near-extremal structure report (no pass/fail).

    Computes the best line-cover direction, the major hyperplane for it, the
    slab decomposition, and whether the shape matches slab-pair structure:
    two parallel hyperplanes with the larger slice covered by d - 1 lines.
    """
    d = a.dim
    if d < 2 or affine_dimension(a) != d:
        raise ValueError("diagnosis needs a full-dimensional set in dimension >= 2")
    direction, cover = min_line_cover(a)
    h = major_hyperplane(a, direction)
    slices = hyperplane_slices(a, h)
    sizes = [len(s) for _, s in slices]
    report = {
        "dim": d,
        "size": len(a),
        "line_cover": {"direction": direction.to_json(), "count": cover},
        "major_hyperplane": h.to_json(),
        "slab_count": len(slices),
        "fits_two_hyperplanes": len(slices) <= 2,
        "slice_sizes": sizes,
        "size_imbalance": abs(sizes[0] - sizes[1]) if len(slices) == 2 else None,
    }
    top = slices[0][1]
    if len(top) >= 2:
        top_dir, top_cover = min_line_cover(top)
        part = line_partition(top, top_dir)
        class_sizes = sorted(part.class_sizes())
        report["top_slice_line_cover"] = {
            "direction": top_dir.to_json(),
            "count": top_cover,
            "class_sizes": class_sizes,
            "spread": class_sizes[-1] - class_sizes[0],
        }
        report["top_slice_fits_dminus1_lines"] = top_cover <= d - 1
    else:
        report["top_slice_line_cover"] = None
        report["top_slice_fits_dminus1_lines"] = len(top) == 1
    return report
