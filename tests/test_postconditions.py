"""Postconditions are checks that raise, so they hold under `python -O`.

The cases cover the search, compression, reduction, affine-image and
construction postconditions.  Each case runs a `python -O` subprocess,
breaks one postcondition on purpose by patching a name the check reads, and
expects the RuntimeError of that check.
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
from sumlab import exhaustive_min_diff, random_probe, reduce
from sumlab.incidence import LinePartition

assert not __debug__, "expected python -O"
square = PointSet.of(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
# four slabs along the first axis of the normalized frame, so reduce runs its slab loop twice
comb = PointSet.of(3, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 0, 0)])
real_compress = C.compress


def from_step(k, change):
    # from reduce's k-th compression step (0-based) on, the step hands back change(input, image)
    steps = []

    def fake(x, spec):
        steps.append(spec)
        image, mapping = real_compress(x, spec)
        return (change(x, image) if len(steps) > k else image), mapping

    C.compress = fake


def break_witness_check():
    real_diff = S.difference_set
    # every witness now looks one difference short of the value the search found
    S.difference_set = lambda a, b: PointSet(a.dim, real_diff(a, b).points[1:])


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
    "reduce": (
        # the input keeps its dimension, the reduced set seems to lose one
        "real_dim = C.affine_dimension\n"
        "C.affine_dimension = lambda x: real_dim(x) - (x is not square)\n"
        "reduce(square, PointSet.of(2, [(0, 0)]), Direction.of((0, 1)))",
        "reduction postcondition failed",
    ),
    "compress": (
        # every point its own fibre: two points of one line both land where it meets the hyperplane
        "C.line_partition = lambda a, l: LinePartition(l, tuple((p, PointSet(a.dim, (p,))) for p in a.points))\n"
        "compress(PointSet.of(2, [(0, 0), (0, 1)]), CompressionSpec(Hyperplane.of((0, 1), 0), Direction.of((0, 1))))",
        "compression postcondition failed",
    ),
    "reduce_downclosed": (
        "from_step(2, lambda x, image: PointSet.of(3, [tuple(2 * c for c in p) for p in image]))\n"
        "reduce_comb()",
        "set is not down-closed",
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
        "P.AffineMap.apply = lambda self, p: (0,) * len(p)\n"
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_broken_postcondition_raises_under_optimize(name):
    code, message = CASES[name]
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-O", "-c", PRELUDE + code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        timeout=30,  # without its checks, a broken reduce can loop for ever
    )
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1].startswith("RuntimeError: " + message)
