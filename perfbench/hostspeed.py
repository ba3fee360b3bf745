"""Host speed probe, used to factor host contention out of pass timings.

On a shared host the same pass on the same inputs ran in 26 s and in 39 s:
other tenants slow the whole machine down for tens of seconds at a time.
Each check of a pass is therefore bracketed by probes of a fixed kernel
(a Python loop plus the numpy sorts canon is built on), and the check's time
is scaled by ``NOMINAL_S`` over the mean of its two probe times.  The scaled
sum estimates the pass time on an uncontended host.  Probes run between
checks, never inside a timed check; the kernel does not use ``symcube``, so
a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# probe time on an uncontended 2-vCPU Xeon host; it only sets the scale of
# the normalised times, so it must not change between compared commits
NOMINAL_S = 0.0035

_ROWS = np.random.default_rng(0).integers(0, 4096, size=(1536, 3))


def _kernel() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(25_000):
        acc += i * i % 7
    for _ in range(20):
        np.argsort(np.sort(_ROWS, axis=1)[:, 0], kind="stable")
    return time.perf_counter() - start


def probe() -> float:
    """Median of three runs of the fixed kernel, in seconds."""
    return statistics.median(_kernel() for _ in range(3))


class Clock:
    """Sums timed intervals, raw and scaled to the nominal host speed.

    Each interval is scaled by the probes taken just before and just after
    it; consecutive intervals share the probe between them."""

    def __init__(self):
        self.raw_s = 0.0
        self.norm_s = 0.0
        self._last = probe()

    def add(self, elapsed: float) -> None:
        speed = probe()
        self.raw_s += elapsed
        self.norm_s += elapsed * NOMINAL_S / ((self._last + speed) / 2)
        self._last = speed
