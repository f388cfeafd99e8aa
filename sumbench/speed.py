"""Host speed, measured by a fixed reference work interleaved with the jobs.

The benchmark runs on a shared host whose speed drifts by up to half within
a minute, so raw timings of the same code differ more between runs than a
bound could allow.  The run therefore interleaves short slices of a fixed
pure-Python work, which uses nothing of sumlab, with its jobs and set-ups,
spending about CAL_SHARE of its time on them, and reports every time scaled
to the host speed at which one slice takes REFERENCE_S seconds:

    reported time = measured time * REFERENCE_S / local slice time

where the local slice time is the median of the WINDOW slices run nearest
to the timed work.  A change to sumlab moves the job times and leaves the
slices alone, so it shows in the scaled figures in full.

The reference work is a plain integer loop.  On the host the bounds were set
on, its time explained most of the drift of every workload's job time
between runs (correlation 0.8 to 0.98 over eight runs of each), at least as well as
work with dict inserts over a large table, Fraction arithmetic or small
tuple sets, and it allocates nothing, so the program's own heap cannot
change its time.
"""

from __future__ import annotations

from time import perf_counter

CAL_SHARE = 0.1
WINDOW = 16
# median slice time on the host the bounds were set on (2 vCPUs, Python 3.11)
REFERENCE_S = 0.0025


def _reference_work() -> int:
    total = 0
    for i in range(25_000):
        total += (i * i) % 7
    return total


class Speed:
    """Runs reference slices so that they take CAL_SHARE of the time spent."""

    def __init__(self):
        self.slices: list[float] = []
        self.spent = self.sliced = 0.0
        self.tick(0.0)

    def tick(self, elapsed: float) -> int:
        """Account `elapsed` seconds of timed work that has just ended, then
        run slices until they have their share of the time so far.  Returns
        the mark that `scaled` needs: the number of slices run before it."""
        mark = len(self.slices)
        self.spent += elapsed
        while self.sliced < CAL_SHARE * self.spent or len(self.slices) < WINDOW:
            start = perf_counter()
            _reference_work()
            self.slices.append(perf_counter() - start)
            self.sliced += self.slices[-1]
        return mark

    def scaled(self, elapsed: float, mark: int) -> float:
        """`elapsed`, timed at `mark`, as it would read at reference speed."""
        lo = max(0, min(mark - WINDOW // 2, len(self.slices) - WINDOW))
        near = sorted(self.slices[lo:lo + WINDOW])
        return elapsed * REFERENCE_S / near[len(near) // 2]
