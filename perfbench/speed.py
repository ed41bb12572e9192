"""Machine-speed sampler for timing on a shared host.

On a small shared host the CPU this process runs on speeds up and slows
down by as much as 1.7x over tens of seconds as other tenants load it;
neither CPU time nor a longer run removes that.  The sampler times a
fixed calibration loop ten times a second (from a SIGALRM handler, so
it runs on the same CPU, interleaved with the measured code) and
rescales measured intervals to the speed at which each loop takes its
nominal time.  The sampler's own time is taken out first.

The loop that tracks quantilab best is a Python loop over 16-point numpy
expressions, the shape of one quadrature panel; it is a fixed copy, so a
change to quantilab cannot speed it up.  Until ``use_numpy`` is called
(numpy may be half-imported when the signal lands) a pure-Python loop
stands in, so that set-up is sampled too.
"""

from __future__ import annotations

import math
import signal
import time

PERIOD_S = 0.1
# Loop times at the median speed of the machine the benchmark was defined
# on (2-vCPU Intel Xeon, KVM guest, Python 3.11, numpy 2.4); rescaled
# seconds are seconds at that speed.
NOMINAL_PYTHON_S = 6.0e-4
NOMINAL_NUMPY_S = 5.0e-4


def _python_loop() -> None:
    acc = 0.0
    for i in range(4000):
        acc += math.exp(-1e-4 * i) * i


class SpeedSampler:
    def __init__(self) -> None:
        # (time the loop took, nominal time divided by that: the speed)
        self.samples: list[tuple[float, float]] = []
        self._loop = _python_loop
        self._nominal = NOMINAL_PYTHON_S

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def use_numpy(self) -> None:
        """Switch to the panel-shaped loop once numpy is fully imported."""
        import numpy as np

        x = np.linspace(-1.0, 1.0, 16)
        w = np.full(16, 0.125)

        def numpy_loop() -> None:
            acc = 0.0
            for _ in range(100):
                acc += float(np.dot(np.exp(-0.5 * x * x), w))

        self._loop, self._nominal = numpy_loop, NOMINAL_NUMPY_S

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._loop()
        took = time.perf_counter() - t0
        self.samples.append((took, self._nominal / took))

    def mark(self) -> int:
        return len(self.samples)

    def span(self, since: int) -> list[tuple[float, float]]:
        return self.samples[since:]

    @staticmethod
    def rescale(elapsed_s: float, samples: list[tuple[float, float]]) -> float:
        """``elapsed_s`` minus the samples' own time, at nominal speed.

        Samples are evenly spaced in time, so the mean speed is the
        time-weighted one: work done is elapsed time times mean speed.
        """
        if not samples:
            return elapsed_s  # shorter than one sampling period
        busy = sum(took for took, _ in samples)
        speed = sum(s for _, s in samples) / len(samples)
        return (elapsed_s - busy) * speed
