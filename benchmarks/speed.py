"""Host-speed probe for the timed region.

On a shared virtual machine the speed of a core changes by tens of percent
within seconds, as other tenants load the hardware it runs on.  The probe
samples that speed during the timed region: a SIGALRM handler runs a fixed
reference kernel (exact-rational arithmetic, integer bit operations and small
numpy products, the three kinds of work mrw does) every ``interval`` seconds
and times it.  ``speed()`` is the mean over samples of reference time over
sampled time, i.e. the time-averaged share of reference-speed work the core
did; the workload's wall time (less the time spent in the handler) times
that share is ``wall_ref_s``, its duration at the reference speed.

The kernel uses only the standard library and numpy, so no change to mrw can
change it.  On a 2-vCPU host, eight runs of exact-pipeline at one seed had
raw wall times spread over 57 % of their median (quartiles 26 % apart) and
``wall_ref_s`` over 6 % (quartiles 2 % apart).
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy as np

# typical kernel time on the development host; only ratios matter, the
# constant just keeps wall_ref_s near the wall seconds seen there
REFERENCE_KERNEL_S = 1.75e-3

_MAT = np.arange(64, dtype=float).reshape(8, 8) / 64.0


def reference_kernel() -> None:
    s = Fraction(0)
    for i in range(1, 180):
        s += Fraction(1, i)
    bits = 0
    for i in range(1, 900):
        bits ^= (bits << 1 | i) & 0xFFFFFFFF
        bits += (bits & -bits).bit_length()
    m = _MAT
    for _ in range(60):
        m = np.maximum(_MAT @ m - 0.5, 0.0)


class SpeedProbe:
    """Context manager that samples the reference kernel on a timer."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.handler_s += elapsed

    def __enter__(self) -> "SpeedProbe":
        reference_kernel()  # first call pays numpy's warm-up
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Mean of reference time over sampled kernel time: the share of
        reference-speed work the core did per second, averaged over the
        timed region (1.0 when no sample was taken)."""
        if not self.samples:
            return 1.0
        return sum(REFERENCE_KERNEL_S / t for t in self.samples) / len(self.samples)
