"""Brute-force reference computations that share no code with `sumlab`.

Everything here works on plain tuples of ints or `Fraction`s and is written
for obviousness, not speed.  The benchmark compares every job's output with
these functions; a mismatch counts the job as failed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def fracs(points):
    return [tuple(Fraction(c) for c in p) for p in points]


def sum_count(a, b) -> int:
    pa, pb = fracs(a), fracs(b)
    return len({tuple(x + y for x, y in zip(p, q)) for p in pa for q in pb})


def diff_count(a, b) -> int:
    pa, pb = fracs(a), fracs(b)
    return len({tuple(x - y for x, y in zip(p, q)) for p in pa for q in pb})


def to_lattice(points) -> list[tuple[int, ...]]:
    """Scale rational points by their common denominator: a map that keeps
    every sum, difference, line and hyperplane incidence."""
    pts = fracs(points)
    scale = lcm(1, *(c.denominator for p in pts for c in p))
    return [tuple(int(c * scale) for c in p) for p in pts]


def rank(rows) -> int:
    """Rank of a rational matrix: each row is scaled to integers, then
    fraction-free elimination."""
    m = []
    for row in fracs(rows):
        scale = lcm(1, *(c.denominator for c in row))
        m.append([int(c * scale) for c in row])
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c]
                m[i] = [x * p[c] - f * y for x, y in zip(m[i], p)]
        r += 1
    return r


def affine_dim(points) -> int:
    pts = fracs(points)
    return rank([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]])


def primitive(vec) -> tuple[int, ...]:
    """Primitive integer vector with positive first nonzero entry."""
    g = gcd(*vec)
    v = [x // g for x in vec]
    if next(x for x in v if x) < 0:
        v = [-x for x in v]
    return tuple(v)


def line_key(p, v) -> tuple[int, ...]:
    """Integer label of the line through lattice point p along v: p|v|^2 - (p.v)v."""
    vv = sum(x * x for x in v)
    pv = sum(x * y for x, y in zip(p, v))
    return tuple(x * vv - pv * y for x, y in zip(p, v))


def line_count(points, v) -> int:
    """Number of lines parallel to the integer direction v that meet the set."""
    return len({line_key(p, v) for p in to_lattice(points)})


def min_line_cover(points) -> tuple[tuple[int, ...], int]:
    """(direction, count) minimising the parallel lines covering the set.

    Pairs are bucketed by primitive direction; a union-find per bucket counts
    the lines as n minus the merges.  Ties go to the smallest direction.
    """
    pts = to_lattice(points)
    n = len(pts)
    buckets: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = primitive(tuple(x - y for x, y in zip(pts[j], pts[i])))
            buckets.setdefault(v, []).append((i, j))
    best = None
    for v, pairs in buckets.items():
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                x = parent[x]
            return x

        merges = 0
        for i, j in pairs:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
                merges += 1
        cand = (n - merges, v)
        if best is None or cand < best:
            best = cand
    return best[1], best[0]


def dot(u, v):
    return sum(Fraction(x) * Fraction(y) for x, y in zip(u, v))


def supports(points, normal, offset) -> bool:
    """The hyperplane touches the set and keeps it on one closed side."""
    vals = [dot(normal, p) for p in points]
    off = Fraction(offset)
    return off in vals and (all(x <= off for x in vals) or all(x >= off for x in vals))


def slices_partition(points, normal, first_offset, slices) -> bool:
    """`slices` is [(offset, points)], starts at the supporting offset
    first_offset, runs monotonically away from it and partitions the set by
    the value of normal . p."""
    seen = []
    offsets = [Fraction(o) for o, _ in slices]
    for off, part in slices:
        if not part or any(dot(normal, p) != Fraction(off) for p in part):
            return False
        seen.extend(fracs(part))
    monotone = offsets == sorted(offsets) or offsets == sorted(offsets, reverse=True)
    return (
        monotone
        and len(set(offsets)) == len(offsets)
        and sorted(seen) == sorted(fracs(points))
        and offsets[0] == Fraction(first_offset)
    )


def reduced_shape_ok(points, lines: int, d: int) -> bool:
    """Slab-plus-point form: `lines` lines parallel to e_d meet the set, all
    inside {x_1 = 0} except one, which meets the set only in e_1."""
    pts = fracs(points)
    fibers: dict[tuple, list] = {}
    for p in pts:
        fibers.setdefault(p[:-1], []).append(p)
    off = [f for key, f in fibers.items() if key[0] != 0]
    e1 = tuple(Fraction(int(i == 0)) for i in range(d))
    return len(fibers) == lines and affine_dim(pts) == d and off == [[e1]]


def main_bound(d: int, n: int) -> Fraction:
    return (2 * d - 2 + Fraction(1, d - 1)) * n - (2 * d * d - 4 * d + 3)


def freiman_bound(d: int, n: int) -> Fraction:
    return Fraction((d + 1) * n) - Fraction(d * (d + 1), 2)


def stan_doubling_sum(d: int, n: int) -> Fraction:
    return (d + Fraction(4, 3)) * n - Fraction(3 * d * d + 5 * d + 8, 6)


def claim_expectation(claim: str, d: int, a, b, l) -> dict:
    """lhs, rhs, conclusion and (where cheap) hypothesis of one catalog claim,
    recomputed from scratch.  Keys are left out where the value needs the
    major hyperplane or a radical threshold."""
    n, m = len(a), (len(b) if b is not None else 0)
    full = affine_dim(a) == d
    if claim in ("FREIMAN_SUM", "FHU_DIFF", "MAIN", "LINES_4D", "DLINES", "TWOPLANES_1"):
        lhs = Fraction(sum_count(a, a) if claim == "FREIMAN_SUM" else diff_count(a, a))
        out = {"lhs": lhs}
        if claim in ("FREIMAN_SUM", "FHU_DIFF", "MAIN"):
            rhs = freiman_bound(d, n) if claim != "MAIN" else main_bound(d, n)
            out.update(rhs=rhs, hyp=full)
        elif claim == "LINES_4D":
            sizes = {}
            for p in to_lattice(a):
                sizes[line_key(p, l)] = sizes.get(line_key(p, l), 0) + 1
            out.update(rhs=main_bound(d, n), hyp=full and min(sizes.values()) >= 4 * d)
        elif claim == "DLINES":
            cover = min_line_cover(a)[1] if n >= 2 else 1
            rhs = (2 * d - 2 + Fraction(2, d)) * n - (d * d - d + 1)
            out.update(rhs=rhs, hyp=full and cover <= d)
        if "rhs" in out:
            out["concl"] = lhs >= out["rhs"]
        return out
    if claim == "RUZSA_ASYM":
        lhs = Fraction(sum_count(a, b))
        rhs = Fraction(n + d * m) - Fraction(d * (d + 1), 2)
        sums = {tuple(x + y for x, y in zip(p, q)) for p in fracs(a) for q in fracs(b)}
        return {"lhs": lhs, "rhs": rhs, "concl": lhs >= rhs, "hyp": n >= m and affine_dim(list(sums)) == d}
    if claim == "GS_LINES":
        r1, r2 = line_count(a, l), line_count(b, l)
        lhs = Fraction(sum_count(a, b))
        rhs = (Fraction(n, r1) + Fraction(m, r2) - 1) * (r1 + r2 - 1)
        return {"lhs": lhs, "rhs": rhs, "concl": lhs >= rhs, "hyp": True}
    if claim in ("LEMMA_BASE_2D", "ASYM_THM"):
        r = line_count(a, l)
        few = r <= 2 if claim == "LEMMA_BASE_2D" else r == d
        return {"lhs": Fraction(r), "rhs": Fraction(n, 4), "concl": few or 4 * r > n}
    if claim == "STAN_DOUBLING":
        cover = min_line_cover(a)[1] if n >= 2 else 1
        hyp = full and sum_count(a, a) < stan_doubling_sum(d, n)
        return {"lhs": Fraction(cover), "rhs": Fraction(d), "concl": cover <= d, "hyp": hyp}
    raise ValueError(claim)


def claim_ok(report, claim: str, d: int, a, b=None, l=None) -> bool:
    """The report matches the recomputation and its verdict follows from its
    hypothesis and conclusion flags."""
    want = claim_expectation(claim, d, a, b, l)
    got = {"lhs": report.lhs, "rhs": report.rhs, "concl": report.conclusion_holds,
           "hyp": report.hypothesis_holds}
    if any(got[k] != v for k, v in want.items()) or report.margin != report.lhs - report.rhs:
        return False
    if not report.hypothesis_holds:
        return report.verdict == "VACUOUS"
    if report.conclusion_holds:
        return report.verdict == "CONSISTENT"
    return report.verdict in ("COUNTEREXAMPLE", "BELOW_GUARANTEED_SIZE")
