"""The host's speed, sampled while a workload runs, and times scaled by it.

On a shared host the same work can take 50% longer from one moment to the
next (the kernel below flips between about 4 and 6 ms from one call to the
next, and the same pass takes 1.3 s in one half-minute and 1.9 s in
another), and process CPU time grows with it, so neither wall time nor CPU
time of a pass repeats between runs.  ``SpeedSampler`` runs a fixed
reference kernel (pure Python, small numpy solves, a small complex matrix
product and FFTs; nothing from ``precofdm``) from a ``SIGALRM`` handler
every ``INTERVAL_S`` seconds (by default) while a workload runs.  The kernel's time is
taken out of the workload's time, and the mean kernel time over an interval
gives the host's speed there.  ``scaled`` turns a wall time into the time
the same work takes when the kernel takes ``REFERENCE_S``.

A Python signal handler runs between bytecodes, so a sample falls due
during a long C call (a large BLAS product) runs when that call returns.
"""
from __future__ import annotations

import signal
import time

import numpy as np
# numpy loads these submodules lazily.  The handler may interrupt any
# import, so everything the kernel touches is loaded here, not in it.
import numpy.fft
import numpy.linalg

INTERVAL_S = 0.25
# Kernel time that scaled times refer to: its typical time on the 2-vCPU
# host the benchmark was sized on, sampled inside a running workload.
REFERENCE_S = 0.0055

_rng = np.random.default_rng(20250105)
_MAT = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_SMALL = _rng.standard_normal((6, 6)) + 3 * np.eye(6)
_VEC = _rng.standard_normal(2048) + 0j


def reference_kernel() -> float:
    """Runs the fixed kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(15000):
        acc += i * i
    for _ in range(150):
        np.linalg.solve(_SMALL, _SMALL[0])
    for _ in range(5):
        _MAT @ _MAT
    for _ in range(15):
        np.fft.ifft(np.fft.fft(_VEC))
    return time.perf_counter() - start


def scaled(wall_s: float, kernel_s: list[float]) -> float:
    """``wall_s`` at the reference speed, from the kernel times sampled in it."""
    return wall_s * REFERENCE_S / (sum(kernel_s) / len(kernel_s))


class SpeedSampler:
    """Samples the kernel every ``interval`` s between ``start`` and ``stop``.

    ``samples`` holds each kernel time; ``paused`` the total time spent in
    the handler, which callers subtract from the wall time they measure.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.paused = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference_kernel())
        self.paused += time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def start(self) -> None:
        reference_kernel()  # any first-call set-up, before the handler can fire
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float, int]:
        """A point in time to measure from: (clock, paused, samples taken)."""
        return time.perf_counter(), self.paused, len(self.samples)

    def since(self, mark: tuple[float, float, int]) -> tuple[float, list[float]]:
        """Wall time since ``mark`` without the handler's share, and the
        kernel times sampled in it."""
        start, paused, taken = mark
        wall = time.perf_counter() - start - (self.paused - paused)
        return wall, self.samples[taken:]
