"""Machine-speed reference that the end-to-end times are scaled by.

The benchmark runs on hosts whose CPUs other work shares, and their speed
drifts. While this benchmark was defined, the same `oracle_long` rounds took
2.8 s at one time and 4.7 s ten minutes later. Quartile spreads of raw times
across ten runs reached 40 %, and the host's speed also flipped within
seconds.

To cancel that drift, a fixed kernel is timed in the same process,
interleaved with the measured work: at least every ``EVERY_S`` between
batches, between the items of a batch where the harness sees them, and
before the first and after the last batch. The kernel does not
use nilconj. It mixes small matrix exponentials, matrix products and Python
arithmetic, which is the library's instruction mix. Each batch's or item's
time, less any samples inside it, is then reported at the nominal speed, at
which the kernel takes ``NOMINAL_S``:

    reported = measured * NOMINAL_S / mean(kernel just before, during and just after)

On a four-minute record of `oracle_long` batches, this cut the quartile
spread of 25-second medians from 34 % (raw) to 4.5 %. Scaling by one
kernel median per run only brought it to 10 %. Every result file also keeps
the raw batch times and the kernel samples.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 0.010
EVERY_S = 0.25
_STEPS = 300
_MATRIX = np.random.default_rng(20030201).standard_normal((5, 5)) * 0.3


def kernel() -> float:
    # scipy is imported here, not at module level, so that a set-up timed
    # after importing this module still pays for scipy's import.
    from scipy.linalg import expm
    x = np.eye(5)
    acc = 0.0
    for i in range(_STEPS):
        x = expm(_MATRIX) @ x
        x /= np.abs(x).max()
        acc += 0.5 * i
    return acc + float(x[0, 0])


class Speed:
    """Kernel timings of this process as (start, end) intervals, in time order."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            kernel()
            self.samples.append((t0, time.perf_counter()))

    def maybe_sample(self) -> None:
        """Take a sample unless one ended less than EVERY_S ago."""
        if not self.samples or time.perf_counter() - self.samples[-1][1] >= EVERY_S:
            self.sample()

    def mean(self) -> float:
        return statistics.fmean(end - start for start, end in self.samples)

    def busy(self, start: float, end: float) -> float:
        """Time spent on samples within [start, end]."""
        return sum(max(0.0, min(e, end) - max(s, start)) for s, e in self.samples)

    def scale(self, start: float, end: float) -> float:
        """Factor for work done in [start, end]: from the samples during it and either side."""
        i = bisect.bisect_right([e for _, e in self.samples], start)   # [:i] ended by `start`
        j = bisect.bisect_left([s for s, _ in self.samples], end)      # [j:] start after `end`
        near = self.samples[max(i - 1, 0):j + 1]
        return NOMINAL_S / statistics.fmean(e - s for s, e in near)
