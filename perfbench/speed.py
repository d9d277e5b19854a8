"""A fixed reference kernel that tracks how fast the host runs right now.

The reference box's CPUs change speed by up to 1.5x within seconds as
other tenants load the host, and a whole 20-second run can sit in a
slow stretch: over ten seeds the raw wall-clock of a unit of work
spread 13-35% between runs. The ``figures`` and ``campaign`` workloads
therefore time this kernel before their first unit of work and after
every unit, and report each unit's wall-clock scaled to the kernel's
nominal speed::

    scaled = wall-clock x NOMINAL_S / mean(kernel before, kernel after)

The kernel runs no program code and never changes, so a change to the
program moves the scaled time exactly as much as the wall-clock, while
a change in host speed moves the kernel and the unit together and
cancels out. It only tracks speed changes slower than a unit, so units
are kept short (about half a second).

The kernel is numpy sorts, prefix sums and a broadcast product over
in-cache arrays plus a dict-heavy Python loop. Variants that also drew
random numbers or wrote small files tracked the workloads worse: over
five seeds, 5-16% spread in scaled time against 1-2% for this one.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's wall-clock on the reference box at its usual speed, so a
#: scaled time reads as seconds on that box.
NOMINAL_S = 0.014


def kernel() -> float:
    """One pass of the reference mix; returns a checksum so nothing is skipped."""
    a = np.random.default_rng(0).random(50000)
    total = 0.0
    for _ in range(6):
        total += float(np.cumsum(np.sort(a))[-1])
        total += float((a[:2000, None] * a[None, :200]).sum())
        counts: dict[int, int] = {}
        for i in range(6000):
            key = i % 97
            counts[key] = counts.get(key, 0) + i
        total += len(counts)
    return total


class SpeedProbe:
    """Times :func:`kernel` between units of work and scales their times."""

    def __init__(self) -> None:
        self.last = self._time_kernel()

    @staticmethod
    def _time_kernel() -> float:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0

    def scale(self, seconds: float) -> float:
        """``seconds`` of a unit that just ended, at the nominal host speed."""
        now = self._time_kernel()
        speed = 0.5 * (self.last + now)
        self.last = now
        return seconds * NOMINAL_S / speed
