"""Samples how fast this process's CPU runs while an operation executes.

On a shared host the CPU under a process can switch between full speed and
about half speed every few seconds.  On a 2-vCPU KVM guest (Intel Xeon,
2.1 GHz) a fixed Python loop took either 13.5 ms or 24.5 ms, and
wall time per operation spread 26-34 % (quartile distance over median) with
no change in the program.  While an operation runs, a SIGALRM every 20 ms
of wall time makes the main thread time a fixed empty loop between two
bytecodes of the program: about 20 us per sample, 0.1 % of the operation,
never overlapping it.  The mean sample time during an operation says how
slowly the CPU ran for it, and :func:`at_nominal_speed` rescales the
operation's time to a CPU on which the loop takes ``NOMINAL_S``.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

INTERVAL_S = 0.02
LOOP = 1000
# About the mean sample time on that guest at full speed, so rescaled
# times read as seconds there.  A constant, so it cancels when two commits
# are compared.
NOMINAL_S = 16e-6


def at_nominal_speed(seconds: float, probe_s: float) -> float:
    return seconds * NOMINAL_S / probe_s


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        for _ in range(LOOP):
            pass
        self.samples.append(time.perf_counter() - t0)

    @contextmanager
    def during(self):
        """Sample while the block runs; yields a dict that gets ``mean_s``."""
        out: dict[str, float] = {}
        start = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield out
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if len(self.samples) == start:  # block shorter than one interval
                self._sample()
            taken = self.samples[start:]
            out["mean_s"] = sum(taken) / len(taken)
