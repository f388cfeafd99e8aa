"""Build main_threshold.json: exact box minima of |A - A| against the MAIN bound.

MAIN, |A - A| >= (2d - 2 + 1/(d - 1))|A| - (2d^2 - 4d + 3), is proved only for
sufficiently large A.  Each row is the exhaustive minimum of |A - A| over the
full-dimensional n-subsets of one box lattice {0..box_0} x ... x {0..box_(d-1)},
with the margin of MAIN, read as a conjecture, on the first witness the search
reports, that witness and its structure diagnosis.  A negative margin is a
counterexample to MAIN as a conjecture; a margin >= 0 says only that the box
holds none.  The file records no timings, so a re-run writes the same bytes.

    python tables/main_threshold.py            # rewrite main_threshold.json
    python tables/main_threshold.py --check    # re-run every row; exit 1 if one differs
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

TABLE = Path(__file__).with_name("main_threshold.json")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sumlab import SearchSpec, check_claim, exhaustive_min_diff, structure_diagnose  # noqa: E402

# (d, n, box): every n of {0,1}^4, then the larger boxes, each walked in seconds
ROWS = [(4, n, (1, 1, 1, 1)) for n in range(5, 17)] + [
    (4, 9, (2, 1, 1, 1)),
    (4, 10, (2, 1, 1, 1)),
    (4, 11, (2, 1, 1, 1)),
    (4, 12, (2, 1, 1, 1)),
    (4, 8, (2, 2, 1, 1)),
    (4, 9, (2, 2, 1, 1)),
    (5, 8, (1, 1, 1, 1, 1)),
    (5, 10, (1, 1, 1, 1, 1)),
    (3, 6, (3, 3, 3)),
    (3, 7, (2, 2, 2)),
    (3, 8, (2, 2, 2)),
    (3, 9, (2, 2, 2)),
    (3, 7, (3, 2, 2)),
    (3, 8, (3, 2, 2)),
]


def row(d: int, n: int, box: tuple[int, ...]) -> dict:
    result = exhaustive_min_diff(SearchSpec(d, n, box, "EXHAUSTIVE", seed=0, require_full_dim=True))
    witness = result.witnesses[0]
    report = check_claim("MAIN", witness, as_conjecture=True)
    return {
        "d": d,
        "n": n,
        "box": list(box),
        "kind": "box",
        "min": result.best_value,
        "candidates_examined": result.candidates_examined,
        "bound": str(report.rhs),
        "margin": str(report.margin),
        "verdict": report.verdict,
        "witness": witness.to_json(),
        "diagnosis": structure_diagnose(witness),
    }


def render(rows: list[dict]) -> str:
    """The table as JSON text, one row per line."""
    body = ",\n".join("  " + json.dumps(r) for r in rows)
    return '{\n "claim": "MAIN",\n "as_conjecture": true,\n "rows": [\n' + body + "\n ]\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed table instead of writing it")
    args = parser.parse_args(argv)
    rows = []
    for d, n, box in ROWS:
        rows.append(row(d, n, box))
        print(f"d={d} n={n} box={'x'.join(map(str, box))} min={rows[-1]['min']} margin={rows[-1]['margin']}")
    text = render(rows)
    if not args.check:
        TABLE.write_text(text)
        return 0
    old = TABLE.read_text() if TABLE.is_file() else ""
    if text == old:
        return 0
    committed = json.loads(old)["rows"] if old else []
    for i, r in enumerate(rows):
        if i >= len(committed) or committed[i] != r:
            print(f"row {i} (d={r['d']} n={r['n']} box={r['box']}) differs from {TABLE.name}", file=sys.stderr)
    print(f"{TABLE.name} differs from a re-run", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
