"""Postconditions and refusals are checks that raise, so they hold under `python -O`.

The cases cover the search, compression, reduction, affine-image and
construction postconditions.  Each case runs a `python -O` subprocess,
breaks one postcondition on purpose by patching a name the check reads, and
expects the RuntimeError of that check.  The refusal cases pass check_claim
an instance outside its claim's domain and expect the ValueError.
"""

import subprocess
import sys
from pathlib import Path

import pytest

PRELUDE = """
import sumlab.compression as C
import sumlab.constructions as K
import sumlab.pointset as P
import sumlab.search as S
from sumlab import CompressionSpec, Direction, Hyperplane, PointSet, SearchSpec, compress
from sumlab import check_claim, exhaustive_min_diff, random_probe, reduce

assert not __debug__, "expected python -O"
square = PointSet.of(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
# four slabs along the first axis of the normalized frame, so reduce runs its slab loop twice
comb = PointSet.of(3, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 0, 0)])
real_slid = C.TraceStep._slid.func


def from_step(k, change):
    # from reduce's k-th compression step (0-based) on, the step's slide hands back change(input, image)
    steps = []

    def fake(step):
        steps.append(step.spec)
        image, scale, moved = real_slid(step)
        return (change(step.source, image) if len(steps) > k else image), scale, moved

    C.TraceStep._slid = property(fake)


def break_witness_check():
    real_count = S._tuple_diff_count
    # every witness now looks one difference short of the value the search found
    S._tuple_diff_count = lambda pts: real_count(pts) - 1


def repeat_a_witness_point():
    real_result = S._search_result
    # each witness keeps its length but repeats its first point in place of its last
    S._search_result = lambda spec, best, ws, *rest: real_result(spec, best, [w[:1] + w[:-1] for w in ws], *rest)


def reduce_comb():
    reduce(comb, PointSet.of(3, []), Direction.of((0, 0, 1)))
"""

# name -> (code after the prelude, start of the expected RuntimeError message)
CASES = {
    "exhaustive_min_diff": (
        'break_witness_check(); exhaustive_min_diff(SearchSpec(2, 4, (2, 2), "EXHAUSTIVE", seed=0))',
        "witness",
    ),
    "random_probe": (
        'break_witness_check(); random_probe(SearchSpec(2, 4, (2, 2), "RANDOM", seed=0, trials=5))',
        "witness",
    ),
    "exhaustive_min_diff_witness_order": (
        'repeat_a_witness_point(); exhaustive_min_diff(SearchSpec(2, 4, (2, 2), "EXHAUSTIVE", seed=0))',
        "witness [(0, 0), (0, 0), (0, 1), (1, 0)] is not 4 strictly increasing points",
    ),
    "random_probe_witness_order": (
        'repeat_a_witness_point(); random_probe(SearchSpec(2, 4, (2, 2), "RANDOM", seed=0, trials=5))',
        "witness [(0, 1), (0, 1), (0, 2), (2, 0)] is not 4 strictly increasing points",
    ),
    "reduce": (
        # the input keeps its dimension, the reduced set seems to lose one
        "real_dim = C.affine_dimension\n"
        "C.affine_dimension = lambda x: real_dim(x) - (x is not square)\n"
        "reduce(square, PointSet.of(2, [(0, 0)]), Direction.of((0, 1)))",
        "reduction postcondition failed",
    ),
    "reduce_off_slab": (
        # the last step lifts e_1 to e_1 + e_2: the line count and the dimension still hold
        "from_step(3, lambda x, image: PointSet.of(2, [p if p[0] == 0 else (p[0], p[1] + 1) for p in image.points]))\n"
        "reduce(square, PointSet.of(2, [(0, 0)]), Direction.of((0, 1)))",
        "reduction postcondition failed: off-slab points",
    ),
    "compress": (
        # every point its own fibre: two points of one line both land where it meets the hyperplane
        "C._shadow_keys = lambda pts, lv: [(i,) for i in range(len(pts))]\n"
        "compress(PointSet.of(2, [(0, 0), (0, 1)]), CompressionSpec(Hyperplane.of((0, 1), 0), Direction.of((0, 1))))",
        "compression postcondition failed",
    ),
    "reduce_downclosed": (
        "from_step(2, lambda x, image: PointSet.of(3, [tuple(2 * c for c in p) for p in image]))\n"
        "reduce_comb()",
        "set is not down-closed",
    ),
    "reduce_integer_coordinates": (
        # halved, the points leave the integer lattice, so the slab loop could not read them as ints
        "from_step(2, lambda x, image: PointSet.of(3, [tuple(c / 2 for c in p) for p in image]))\n"
        "reduce_comb()",
        "expected nonnegative integer coordinates",
    ),
    "reduce_simplex": (
        # a column on the last axis is down-closed but misses e_1 and e_2
        "from_step(2, lambda x, image: PointSet.of(3, [(0, 0, k) for k in range(len(image))]))\n"
        "reduce_comb()",
        "axis compressions lost the unit simplex points",
    ),
    "reduce_slab_count": (
        # the first slanted step flattens the set into the slab x_1 = 0
        "from_step(3, lambda x, image: PointSet.of(3, [(0,) + p[1:] for p in image]))\n"
        "reduce_comb()",
        "the set lies in one slab",
    ),
    "apply_affine": (
        # every point goes to the origin
        "P.AffineMap.rows = property(lambda self: ((0, 0), (0, 0)))\n"
        "P.apply_affine(square, P.AffineMap.identity(2))",
        "affine image postcondition failed",
    ),
    "stanchescu_dk": (
        # the progressions lose their last point
        "real_aps = K._parallel_aps\n"
        "K._parallel_aps = lambda *args: real_aps(*args)[:-1]\n"
        "K.stanchescu_dk(3, 2)",
        "stanchescu_dk postcondition failed",
    ),
    "stan_doubling_tight": (
        # e_3 collapses onto the origin, which the rows already hold
        "K.unit = lambda d, axis: (0,) * d\n"
        "K.stan_doubling_tight(3, 2)",
        "stan_doubling_tight postcondition failed",
    ),
    "reduce_slab_decrease": (
        # the slanted steps leave the set as it was
        "from_step(3, lambda x, image: x)\n"
        "reduce_comb()",
        "slab count must strictly decrease",
    ),
}


# name -> (code after the prelude, start of the expected ValueError message)
REFUSALS = {
    "missing_b": ('check_claim("RUZSA_ASYM", square)', "RUZSA_ASYM needs operand B"),
    "direction_of_another_dimension": (
        'check_claim("TWOPLANES_1", K.stanchescu_dk(3, 3), l=Direction.of((1, 0)))',
        "l has dimension 2, but A has dimension 3",
    ),
    "planar_claim_in_3d": (
        'check_claim("GS_LINES", comb, comb, Direction.of((1, 0, 0)))',
        "GS_LINES is a planar claim; got d = 3",
    ),
}


def _last_error_line(code: str) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-O", "-c", PRELUDE + code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        timeout=30,  # without its checks, a broken reduce can loop for ever
    )
    assert result.returncode == 1
    return result.stderr.splitlines()[-1]


@pytest.mark.parametrize("name", sorted(CASES))
def test_broken_postcondition_raises_under_optimize(name):
    code, message = CASES[name]
    assert _last_error_line(code).startswith("RuntimeError: " + message)


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_raises_under_optimize(name):
    code, message = REFUSALS[name]
    assert _last_error_line(code).startswith("ValueError: " + message)
