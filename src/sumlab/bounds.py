"""The inequality catalog: exact bound formulas and instance-level claim checks.

`check_claim` evaluates one claim of CLAIM_IDS on an instance.  Most claims
bound a count of sums or differences below by their `bound_value` formula;
the line-count claims (LEMMA_BASE_2D, ASYM_THM) and STAN_DOUBLING bound a
number of lines instead.  `check_domain` holds the one rule for which claim
applies in which dimension, for the checks here and for the search.  All
evaluation is exact rational arithmetic; comparisons against thresholds of
the form  base - coeff*sqrt(n)  are decided by integer squaring, never by
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .incidence import Direction, hyperplane_slices, line_partition, major_hyperplane, min_line_cover
from .pointset import PointSet, affine_dimension, difference_count, sumset, sumset_count

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
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "margin": str(self.margin),
            "verdict": self.verdict,
        }


def asym_error_constant(d: int) -> int:
    """(d+2)^(2^d - 2), the additive error term of the asymmetric covering claim, for 2 <= d <= 11
    (at d = 12 it has 4,693 digits, past CPython's int-to-text limit, and the digits double with d)."""
    check_domain("ASYM_THM", d)
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

    Parameters by name: d (dimension, held to check_domain when given; the planar formulas omit it),
    n (|A|), m (|B|), r1, r2 (line counts), a1 (|A_1|), eps and c_d (LINES_4D's two constants, both or neither).
    For the sqrt-threshold claims ASYM_THM and LEMMA_BASE_2D the returned
    value is the rational part only; the full strict comparison, which
    subtracts `_radical_coefficient` * sqrt(n), lives in below_sqrt_threshold.
    """
    p = params
    if p.get("d") is not None:
        check_domain(claim, p["d"])
    elif claim not in CLAIM_IDS:
        raise ValueError(f"unknown claim {claim!r}")
    for name, least in (("n", 1), ("m", 1), ("r1", 1), ("r2", 1), ("a1", 0)):
        if p.get(name) is not None and p[name] < least:
            raise ValueError(f"{claim} needs {name} >= {least}; got {name} = {p[name]}")
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
    if claim in ("LINES_4D", "MAIN"):
        d, n = _need(p, "d", "n")
        eps, c_d = p.get("eps"), p.get("c_d")
        if claim == "LINES_4D" and (eps is None) != (c_d is None):
            raise ValueError(f"LINES_4D takes eps and c_d together; missing {'eps' if eps is None else 'c_d'}")
        if claim == "LINES_4D" and eps is not None:
            return (2 * d - 2 + Fraction(1, d - 1) + Fraction(eps)) * n - Fraction(c_d)
        return (2 * d - 2 + Fraction(1, d - 1)) * n - (2 * d * d - 4 * d + 3)
    raise AssertionError(claim)


def _radical_coefficient(claim: str, d: int | None) -> int | None:
    """c in the radical c*sqrt(n) that a sqrt-threshold claim subtracts from its bound, in dimension d; None
    for a claim without one."""
    if claim == "ASYM_THM":
        return 2 ** (d + 1)
    return 5 if claim == "LEMMA_BASE_2D" else None


_NEEDS_B = {"RUZSA_ASYM", "GS_LINES", "LEMMA_BASE_2D", "ASYM_THM"}
_NEEDS_L = {"GS_LINES", "LEMMA_BASE_2D", "ASYM_THM", "TWOPLANES_1", "LINES_4D"}
_PLANAR = {"GS_LINES", "LEMMA_BASE_2D"}
_NEEDS_D2 = {"MAIN", "STAN_DOUBLING", "ASYM_THM", "DLINES", "TWOPLANES_1", "LINES_4D"}


def check_domain(claim: str, d: int) -> None:
    """Raise ValueError unless claim is a catalog claim stated, and evaluable, in ambient dimension d."""
    if claim not in CLAIM_IDS:
        raise ValueError(f"unknown claim {claim!r}")
    if claim in _PLANAR and d != 2:
        raise ValueError(f"{claim} is a planar claim; got d = {d}")
    low = 2 if claim in _NEEDS_D2 else 1
    if d < low:
        raise ValueError(f"{claim} needs ambient dimension >= {low}; got d = {d}")
    if claim == "ASYM_THM" and d > 11:
        raise ValueError(f"ASYM_THM's error constant (d+2)^(2^d - 2) is computed for d <= 11 only; got d = {d}")


def check_claim(
    claim: str,
    a: PointSet,
    b: PointSet | None = None,
    l: Direction | None = None,
    *,
    as_conjecture: bool = False,
) -> ClaimReport:
    """Evaluate hypothesis and conclusion of one claim exactly on an instance.

    B and l must share A's dimension; a claim that does not use them ignores
    them.  Verdicts: VACUOUS when the hypothesis fails; CONSISTENT when the
    conclusion holds; otherwise COUNTEREXAMPLE, except that size-conditional
    statements (MAIN as a theorem, STAN_DOUBLING below its explicit |A| cutoff,
    LINES_4D) downgrade to BELOW_GUARANTEED_SIZE.  MAIN with as_conjecture
    set is unconditional and can report COUNTEREXAMPLE.
    """
    d = a.dim
    check_domain(claim, d)
    if claim in _NEEDS_B and b is None:
        raise ValueError(f"{claim} needs operand B")
    if claim in _NEEDS_L and l is None:
        raise ValueError(f"{claim} needs a line direction")
    if b is not None and b.dim != d:
        raise ValueError(f"B has dimension {b.dim}, but A has dimension {d}")
    if l is not None and len(l.vec) != d:
        raise ValueError(f"l has dimension {len(l.vec)}, but A has dimension {d}")

    n = len(a)
    guarded = False
    desc = [f"A: {n} points in dim {d}"]
    if b is not None:
        desc.append(f"B: {len(b)} points")
    if l is not None:
        desc.append(f"l: {','.join(str(x) for x in l.vec)}")
    if claim == "MAIN" and as_conjecture:
        desc.append("as conjecture")

    if claim in ("LEMMA_BASE_2D", "ASYM_THM"):
        # few sums force A onto few lines parallel to l (at most 2, or exactly d) or onto more than n/4
        r = line_partition(a, l).count
        hyp = (claim == "LEMMA_BASE_2D" or affine_dimension(a) == d) and n >= len(b) and below_sqrt_threshold(
            sumset_count(a, b), bound_value(claim, d=d, n=n, m=len(b)), _radical_coefficient(claim, d), n
        )
        lhs, rhs = Fraction(r), Fraction(n, 4)
        concl = (r <= 2 if claim == "LEMMA_BASE_2D" else r == d) or lhs > rhs
    elif claim == "STAN_DOUBLING":
        hyp = affine_dimension(a) == d and sumset_count(a, a) < bound_value(claim, d=d, n=n)
        cover = _cover(a)
        lhs, rhs, concl = Fraction(cover), Fraction(d), cover <= d
        guarded = n <= 3 * 4**d
    else:
        # every other claim bounds a count of sums or differences below by its bound formula
        params = {}
        if claim == "RUZSA_ASYM":
            total = sumset(a, b)
            hyp = n >= len(b) and affine_dimension(total) == d
            count = len(total)
            params = {"m": len(b)}
        elif claim == "GS_LINES":
            hyp = True
            count = sumset_count(a, b)
            params = {"r1": line_partition(a, l).count, "m": len(b), "r2": line_partition(b, l).count}
        elif claim == "TWOPLANES_1":
            hyp, a1_size = _twoplanes_hypothesis(a, l)
            count = difference_count(a, a)
            params = {"a1": a1_size}
        else:
            hyp = affine_dimension(a) == d
            if claim == "DLINES":
                hyp = hyp and _cover(a) <= d
            elif claim == "LINES_4D":
                hyp = hyp and all(size >= 4 * d for size in line_partition(a, l).class_sizes())
            count = sumset_count(a, a) if claim == "FREIMAN_SUM" else difference_count(a, a)
            guarded = claim == "LINES_4D" or (claim == "MAIN" and not as_conjecture)
        lhs = Fraction(count)
        rhs = bound_value(claim, d=d, n=n, **params)
        concl = lhs >= rhs

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


def _cover(a: PointSet) -> int:
    """The fewest parallel lines that cover A; 1 for a set of fewer than two points."""
    return min_line_cover(a)[1] if len(a) >= 2 else 1


def _twoplanes_hypothesis(a: PointSet, l: Direction) -> tuple[bool, int]:
    """A full-dimensional, r = 2 slabs for the major hyperplane, dim(A_1) = d - 1, d - 1 lines cover A_1;
    with |A_1|, or 0 when there is no A_1."""
    d = a.dim
    if affine_dimension(a) != d:
        return False, 0
    slices = hyperplane_slices(a, major_hyperplane(a, l))
    if len(slices) != 2:
        return False, 0
    a1 = slices[0][1]
    if affine_dimension(a1) != d - 1:
        return False, len(a1)
    return line_partition(a1, l).count == d - 1, len(a1)


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
