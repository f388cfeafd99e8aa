import json
from fractions import Fraction
from pathlib import Path

import pytest

from sumlab import COUNTEREXAMPLE, CONSISTENT, PointSet, SearchSpec, bound_value, exhaustive_min_diff
from sumlab.search import EXHAUSTIVE
from conftest import _fraction_rref, oracle_diff_count

TABLE = json.loads((Path(__file__).resolve().parents[1] / "tables" / "main_threshold.json").read_text())
ROWS = TABLE["rows"]


def _row_id(row):
    return f"d={row['d']} n={row['n']} box={'x'.join(map(str, row['box']))}"


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_threshold_row_witness(row):
    # the witness is n distinct box points spanning Q^d with |W - W| = min, counted in Fractions,
    # and the margin is that count less MAIN's bound, negative exactly on a counterexample
    d, n, box = row["d"], row["n"], row["box"]
    w = PointSet.from_json(row["witness"])
    points = [tuple(map(int, p)) for p in w.points]
    assert row["kind"] == "box" and w.dim == d and len(set(points)) == n
    assert all(0 <= c <= m for p in points for c, m in zip(p, box))
    rows = [[Fraction(c - b) for c, b in zip(p, points[0])] for p in points[1:]]
    assert len(_fraction_rref(rows)[1]) == d
    assert oracle_diff_count(points) == row["min"]
    bound = bound_value("MAIN", d=d, n=n)
    assert row["bound"] == str(bound) and row["margin"] == str(row["min"] - bound)
    assert row["verdict"] == (COUNTEREXAMPLE if row["min"] < bound else CONSISTENT)
    assert row["diagnosis"]["dim"] == d and row["diagnosis"]["size"] == n


# rows the walk finishes in well under a second
FAST = [(4, n, (1, 1, 1, 1)) for n in range(5, 17)] + [
    (4, 12, (2, 1, 1, 1)),
    (3, 7, (2, 2, 2)),
    (3, 8, (2, 2, 2)),
    (3, 8, (3, 2, 2)),
]
FAST_ROWS = [r for r in ROWS if (r["d"], r["n"], tuple(r["box"])) in FAST]


def test_fast_rows_are_in_the_table():
    assert len(FAST_ROWS) == len(FAST)


@pytest.mark.parametrize("row", FAST_ROWS, ids=_row_id)
def test_threshold_row_reruns(row):
    spec = SearchSpec(row["d"], row["n"], tuple(row["box"]), EXHAUSTIVE, seed=0, require_full_dim=True)
    result = exhaustive_min_diff(spec)
    assert result.best_value == row["min"]
    assert result.witnesses[0].to_json() == row["witness"]
    assert result.candidates_examined == row["candidates_examined"]
