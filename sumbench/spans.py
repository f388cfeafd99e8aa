"""Calls into the library, optionally recorded as spans.

Workloads call every library function through `Probe.call`, named
`<module>.<function>`.  The plain probe only calls; the tracer also keeps a
span per call (name, start, end, parent, job id) in memory and tallies the
deterministic counts the per-layer report needs.  Spans sit at the boundary
between the benchmark and the library: nothing inside `sumlab` is traced.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Probe:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def job(self, job_id):
        yield


class Tracer(Probe):
    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, object]] = []
        self.counts: Counter = Counter()
        self._parent: int | None = None
        self._job = None

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        end = perf_counter()
        self.spans.append((name, start, end, self._parent, self._job))
        self.counts[name + ".calls"] += 1
        _tally(self.counts, name, out)
        return out

    @contextmanager
    def job(self, job_id):
        index = len(self.spans)
        self.spans.append(None)
        self._parent, self._job = index, job_id
        start = perf_counter()
        try:
            yield
        finally:
            self.spans[index] = ("bench.job", start, perf_counter(), None, job_id)
            self._parent = self._job = None

    def busy(self) -> Counter:
        """Seconds per span name, and `bench.self`: job time outside any call.

        Calls within a job run one after another, so their durations add up
        to the part of the job span they cover.
        """
        out: Counter = Counter()
        child = Counter()
        for name, start, end, parent, _ in self.spans:
            out[name] += end - start
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name == "bench.job":
                out["bench.self"] += end - start - child[i]
        del out["bench.job"]
        return out


def _tally(counts: Counter, name: str, out) -> None:
    module = name.split(".", 1)[0]
    if module == "pointset" and hasattr(out, "points"):
        counts["pointset.out_points"] += len(out)
    elif name.startswith("bounds.check_claim."):
        counts["bounds.verdict." + out.verdict] += 1
    elif name == "search.exhaustive_min_diff":
        counts["search.candidates_examined"] += out.candidates_examined
        counts["search.witnesses"] += len(out.witnesses)
        counts["search.candidate_count"] += out.spec.candidate_count()
    elif name == "compression.reduce":
        counts["compression.steps"] += len(out[2].steps)
    elif name == "compression.trace_json":
        counts["compression.trace_bytes"] += out[1]
