"""The machine's speed while a measured section runs, sampled with a fixed loop.

On a shared virtual machine the same code runs up to 1.8x slower for
stretches that last from about a second to minutes.  ``SpeedSampler`` times
a short fixed pure-Python loop from a timer signal every ``PERIOD_S`` while a
section runs; the loop slows with the machine, so the section's wall time
divided by the loop's mean time stays steady.  ``REFERENCE_S`` turns that
ratio back into seconds: the time the section would take on a machine where
the loop takes ``REFERENCE_S``, which is about the usual state of the
machine the benchmark was built on.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
LOOP_COUNT = 5_000
REFERENCE_S = 140e-6


class SpeedSampler:
    """Context manager: times the fixed loop every ``PERIOD_S`` of wall time."""

    def __enter__(self) -> "SpeedSampler":
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()  # a section shorter than the period still gets a sample

    def _tick(self, *_signal) -> None:
        start = time.perf_counter()
        for _ in range(LOOP_COUNT):
            pass
        self.samples.append(time.perf_counter() - start)

    def loop_s(self) -> float:
        """Mean loop time over the section."""
        return statistics.fmean(self.samples)


def calibrated_s(pairs) -> float:
    """Median of (seconds / loop seconds) over ``pairs``, in reference seconds."""
    return REFERENCE_S * statistics.median(seconds / loop for seconds, loop in pairs)
