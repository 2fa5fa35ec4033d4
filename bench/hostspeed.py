"""Host speed, sampled with a fixed reference kernel during a timed loop.

The benchmark runs on a few cores of a shared host whose speed drifts
by 20-40% over tens of seconds while the process keeps its core (CPU
time tracks wall time, so the work itself runs slower, not less often).
A drift that long moves a whole run, so no median inside a run removes
it. Instead the loop runs a small fixed kernel every ``INTERVAL_NS``,
and the median kernel time over the run, relative to ``NOMINAL_NS``,
gives the host's speed for that run. The end-to-end times are divided
by that factor and rates multiplied by it: they read as the figures the
program would give on a host that runs the kernel in ``NOMINAL_NS``. The kernel is the benchmark's
own code, so no change to the program moves it; its mix (Python loops
over numpy scalars and dicts, then small matrix products and
reductions) is the mix of arcforge's hot paths. The time spent in the
kernel is reported so callers can leave it out of what they time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

INTERVAL_NS = 200_000_000
# Median kernel time on the 2-vCPU host the baseline was recorded on.
NOMINAL_NS = 1_400_000

_rng = np.random.default_rng(0)
_SCALARS = _rng.standard_normal((40, 40))
_MATRIX = _rng.standard_normal((64, 64))


def kernel() -> float:
    best: dict[int, float] = {}
    for i in range(_SCALARS.shape[0]):
        for j in range(_SCALARS.shape[1]):
            v = _SCALARS[i, j]
            if v > best.get(j, -np.inf):
                best[j] = v
    x = _MATRIX
    for _ in range(20):
        x = np.tanh(x @ _MATRIX * 0.01)
        x.argmax(axis=0)
    return sum(best.values()) + float(x[0, 0])


class HostSpeed:
    def __init__(self, interval_ns: int = INTERVAL_NS):
        self.interval_ns = interval_ns
        self.samples: list[int] = []
        self.spent_ns = 0
        self._last = 0

    def start(self) -> None:
        """Drop earlier samples and take one now."""
        self.samples.clear()
        self.spent_ns = 0
        self._sample()

    def maybe_sample(self) -> None:
        """Time the kernel once if ``interval_ns`` passed since the last time."""
        if time.perf_counter_ns() - self._last >= self.interval_ns:
            self._sample()

    def _sample(self) -> None:
        start = time.perf_counter_ns()
        kernel()
        end = time.perf_counter_ns()
        self.samples.append(end - start)
        self.spent_ns += end - start
        self._last = end

    def factor(self) -> float:
        """Median kernel time over ``NOMINAL_NS``: above 1 on a slow host."""
        return statistics.median(self.samples) / NOMINAL_NS
