"""Rebuild minima.json: min |A-A| for every exhaustive-workload spec.

Brute force over all n-subsets of the box lattice with the oracles in
oracles.py, independent of `sumlab.search`.  Takes about a minute:

    python3 sumbench/make_minima.py
"""

import itertools
import json

import oracles as O
from workloads import EXHAUSTIVE_SPECS, MINIMA_FILE, spec_key


def brute_min(d, n, box, full) -> int:
    lattice = list(itertools.product(*(range(m + 1) for m in box)))
    return min(
        O.diff_count(s, s)
        for s in itertools.combinations(lattice, n)
        if not full or O.affine_dim(s) == d
    )


def main() -> None:
    table = {spec_key(*s): brute_min(*s) for s in EXHAUSTIVE_SPECS}
    MINIMA_FILE.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
