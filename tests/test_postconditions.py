"""The search and reduction postconditions are checks that raise, so they hold under `python -O`.

Each case runs a `python -O` subprocess, breaks one postcondition on purpose
by patching a name the check reads, and expects a RuntimeError.
"""

import subprocess
import sys
from pathlib import Path

import pytest

PRELUDE = """
import sumlab.compression as C
import sumlab.search as S
from sumlab import Direction, PointSet, SearchSpec, exhaustive_min_diff, random_probe, reduce

assert not __debug__, "expected python -O"
real_diff = S.difference_set
# every witness now looks one difference short of the value the search found
S.difference_set = lambda a, b: PointSet(a.dim, real_diff(a, b).points[1:])
square = PointSet.of(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
real_dim = C.affine_dimension
# the input keeps its dimension, the reduced set seems to lose one
C.affine_dimension = lambda x: real_dim(x) - (x is not square)
"""

CASES = {
    "exhaustive_min_diff": 'exhaustive_min_diff(SearchSpec(2, 4, (2, 2), "EXHAUSTIVE", seed=0))',
    "random_probe": 'random_probe(SearchSpec(2, 4, (2, 2), "RANDOM", seed=0, trials=5))',
    "reduce": "reduce(square, PointSet.of(2, [(0, 0)]), Direction.of((0, 1)))",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_broken_postcondition_raises_under_optimize(name):
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-O", "-c", PRELUDE + CASES[name]],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1].startswith("RuntimeError: ")
