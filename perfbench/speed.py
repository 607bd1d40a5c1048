"""A fixed pure-Python reference loop that measures how fast the machine
runs Python right now.

On a shared box the same code runs in fast and slow phases, about 1.4x
apart, that last from a fraction of a second to tens of seconds, so whole
runs land in one phase or the other.  Every time the benchmark reports is
therefore scaled to a reference speed: the raw time multiplied by
REFERENCE_S over the reference loop's time measured right next to it.  The
loop touches no code of the program, so a change to the program cannot move
it.  Scaling halves the spread of a repeated 20 ms piece of rankcalc work
(coefficient of variation 19% raw, 10% scaled), and the spread left over
averages out across the hundreds of queries in a run.
"""

from __future__ import annotations

import signal
import time
from itertools import repeat

# Nominal time of one reference loop, in seconds: the fastest phase of the
# 2-core box the benchmark was defined on.  It only fixes the unit.
REFERENCE_S = 0.002


def _loop() -> int:
    # Only small cached ints: the loop allocates nothing, so the size and
    # state of the program's heap cannot change its time.
    x = y = 0
    for _ in repeat(None, 50000):
        x = (x + 3) & 127
        y = (y ^ x) & 127
    return y


def sample() -> float:
    """Seconds one reference loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


class OverBudget(BaseException):
    """Raised by a Probe's timer once its budget is used; a BaseException so
    no handler in the program under test can swallow it."""


class Probe:
    """Samples the reference loop every INTERVAL_S of process CPU time from
    a SIGPROF handler, and on request between queries, with the time of
    each sample.  A query is then scaled by the mean of the samples taken
    while it ran and within WINDOW_S of either end: a long query by the
    speeds it actually ran at, a short one by the speed around it.
    ``spent_s`` sums the time of every sample, so that a caller can take
    the samples that fired inside a query out of the query's time.

    With ``budget_s``, the timer raises OverBudget once ``reference_s()``
    passes it, so a budget follows the machine's speed while it runs."""

    INTERVAL_S = 0.1
    WINDOW_S = 0.15

    def __init__(self, budget_s: float | None = None):
        self.budget_s = budget_s
        self.samples: list[tuple[float, float]] = []
        self.spent_s = 0.0
        self._taking = False

    def take(self) -> None:
        if self._taking:  # the timer fired inside a sample
            return
        self._taking = True
        t0 = time.perf_counter()
        self.samples.append((t0, sample()))
        self.spent_s += time.perf_counter() - t0
        self._taking = False

    def _tick(self, signum, frame) -> None:
        self.take()
        if self.budget_s is not None and self.reference_s() > self.budget_s:
            raise OverBudget()

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        self.take()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        end = time.perf_counter() + self.WINDOW_S
        while time.perf_counter() < end:
            self.take()

    def reference_s(self) -> float:
        """Reference seconds from the first sample to the last, less the
        samples' own time: each gap scaled by the samples at its ends."""
        return sum((t1 - t0 - v0) * REFERENCE_S * 2 / (v0 + v1)
                   for (t0, v0), (t1, v1) in zip(self.samples, self.samples[1:]))

    def speed_over(self, start: float, end: float) -> float:
        """Mean loop time of the samples in [start - WINDOW_S, end + WINDOW_S]."""
        near = [v for t, v in self.samples if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        return sum(near) / len(near)
