import itertools
import json
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from sumlab import PointSet, VerifySuite, difference_set
from sumlab import verify
from sumlab.bounds import COUNTEREXAMPLE, ClaimReport


@pytest.mark.parametrize(
    "kwargs, message",
    [
        pytest.param(dict(suite="nope"), "unknown suite 'nope'", id="suite"),
        pytest.param(dict(trials=0), "trials must be >= 1", id="trials-0"),
        pytest.param(dict(dims=()), "dims must be a nonempty subset of {2,...,6}", id="dims-empty"),
        pytest.param(dict(dims=(1, 2)), "dims must be a nonempty subset of {2,...,6}", id="dims-1"),
    ],
)
def test_verify_suite_refusals(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        VerifySuite(**{"suite": "all", "trials": 1, "seed": 0, **kwargs})


# a report that breaks every claim check it reaches: a counterexample with a nonzero margin
_BROKEN = ClaimReport("MAIN", "patched", True, False, Fraction(1), Fraction(2), Fraction(-1), COUNTEREXAMPLE)


@pytest.mark.parametrize(
    "suite, check, target, fake",
    [
        ("constructions", "stanchescu_cardinality", "stanchescu_dk", lambda d, k: PointSet.of(d, [(0,) * d])),
        ("constructions", "stanchescu_difference_identity", "difference_count", lambda a, b: -1),
        ("constructions", "stan_doubling_identity_and_cover", "min_line_cover", lambda a: ((), 0)),
        ("constructions", "freiman_equality", "sumset_count", lambda a, b: -1),
        ("constructions", "dlines_bound", "check_claim", lambda *args, **kwargs: _BROKEN),
        # |(A-A) + (B-B)| > |A + B| unless A + B is one point, so both failure records are written
        ("compression", "compress_monotonicity", "compress_pair",
         lambda a, b, spec: (difference_set(a, a), difference_set(b, b))),
        ("compression", "compress_projection_preserved", "project_along",
         lambda p, direction, fresh=itertools.count(): next(fresh)),
        ("reduce", "reduce_postconditions", "reduce_properties_hold", lambda a, b, l: ["patched"]),
        ("reduce", "reduce_square_example", "reduce_lines", lambda a, b, l: (b, a, None)),
        ("claims", "gs_lines_random", "check_claim", lambda *args, **kwargs: _BROKEN),
        ("claims", "unconditional_claims_random", "check_claim", lambda *args, **kwargs: _BROKEN),
        ("claims", "main_margin_zero_on_stanchescu", "check_claim", lambda *args, **kwargs: _BROKEN),
        ("search", "exhaustive_fixtures", "exhaustive_min_diff",
         lambda spec, prune: SimpleNamespace(best_value=-1 if prune else -2, witnesses=())),
        ("search", "main_conjecture_probe", "random_probe", lambda spec: SimpleNamespace(violations=[_BROKEN])),
    ],
)
def test_every_check_reports_its_failure(monkeypatch, suite, check, target, fake):
    # each check's failure branch writes a JSON-ready record and fails the whole report
    monkeypatch.setattr(verify, target, fake)
    report = verify.verify_battery(VerifySuite(suite=suite, trials=2, seed=0, dims=(2, 3)))
    (result,) = [c for c in report["checks"] if c["name"] == check]
    assert result["pass"] is False and result["failures"]
    json.dumps(report)
    assert report["pass"] is False
