"""Machine-speed calibration for the benchmark's timings.

The per-instruction speed of a shared host drifts. On the 2-CPU machine the
benchmark was written on, a fixed kernel timed in 0.3 s windows swung between
71 and 137 ms in regimes lasting one to five seconds, the two CPUs drifted
independently (correlation 0.08), and no steal time was reported. Identical
passes of a workload varied by 11% (standard deviation), which swamps the
differences the benchmark exists to find.

So while an interval is timed, a SIGALRM timer runs a fixed calibration
kernel every ``PERIOD_S`` seconds on the same thread, sampling the speed of
the CPU the work runs on. The interval is reported at the reference speed,
at which one kernel run takes ``REFERENCE_S``:

    reported = (measured - time spent in the kernel) * REFERENCE_S / mean kernel time

This halved the pass-to-pass deviation of the cone workload (11% to 6%).
The kernel mixes the work the workloads do: Python bytecode, numpy calls on
small arrays and a numpy pass over an array larger than the per-core caches
(2 MB, so it barely moves the peak resident memory). It never calls enslab,
so no change to the program can move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.001
PERIOD_S = 0.05

_SMALL = np.linspace(0.0, 1.0, 2000)
_LARGE = np.linspace(0.0, 1.0, 250_000)
_OUT = np.empty_like(_LARGE)


def kernel() -> float:
    """One run of the fixed calibration kernel; returns its duration."""
    start = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    for _ in range(20):
        np.sin(_SMALL)
    np.multiply(_LARGE, 1.0001, out=_OUT)
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the kernel from a SIGALRM handler while the ``with`` block runs."""

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(kernel()))
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.spent = sum(self.samples)
        if not self.samples:
            self.samples.append(kernel())
        self.scale = REFERENCE_S / statistics.mean(self.samples)
        return False

    def at_reference(self, raw_s: float) -> float:
        """``raw_s``, measured inside the block, at the reference speed."""
        return (raw_s - self.spent) * self.scale


def mean_kernel(runs: int) -> float:
    return statistics.mean(kernel() for _ in range(runs))
