import re

import pytest

from sumlab import VerifySuite


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
