"""Host-speed calibration for a shared, noisy machine.

On a shared 2-vCPU host the speed of pure-Python code toggles between a
fast and a slow mode (about 1.6x apart) many times a second, and the share
of time in the slow mode drifts over periods of 10-30 s, longer than one
run.  Raw wall times of whole runs of the same inputs therefore spread by
25% or more.  While ops run, an interval timer interrupts every
``INTERVAL`` seconds to time a fixed unit of pure-Python work (a
field-style method-call loop over nested lists, dict updates and
``Fraction`` arithmetic: the kinds of code the package spends its time in).
Each op's wall time, less the units that ran inside it, is scaled by
``REFERENCE_S`` over the mean unit time within ``WINDOW`` seconds of the
op; a set-up process's wall time by the units measured during its set-up.  A scaled time is the time the op would take on a host where the unit
takes ``REFERENCE_S``; the unscaled times are kept beside them.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.05
WINDOW = 1.0
REFERENCE_S = 0.0006


class _Field:
    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p


_FIELD = _Field(1_000_003)


def _unit():
    f = _FIELD
    rows = [[(i * 7 + j) % 13 for j in range(16)] for i in range(16)]
    acc = 0
    for row in rows:
        for x in row:
            if x:
                acc = f.add(acc, f.mul(x, acc + 1))
    counts: dict = {}
    for i in range(250):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + i
    q = Fraction(0)
    for i in range(1, 50):
        q += Fraction(i, i + 1) * Fraction(1, i)
    return acc, len(counts), q


class Calibration:
    """Unit timings taken from a SIGALRM interval timer while active."""

    def __init__(self):
        self.starts: list = []
        self.durations: list = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        _unit()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def op_time(self, t0, t1) -> tuple:
        """(unscaled, scaled) time of an op that ran over [t0, t1]."""
        inside = sum(
            self.durations[bisect.bisect_left(self.starts, t0):bisect.bisect_left(self.starts, t1)]
        )
        lo = bisect.bisect_left(self.starts, t0 - WINDOW)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW)
        if lo == hi:  # no sample near the op: use the nearest one
            lo = min(max(lo - 1, 0), len(self.starts) - 1)
            hi = lo + 1
        wall = t1 - t0 - inside
        return wall, scaled(wall, self.durations[lo:hi])


def scaled(wall, units):
    """A wall time scaled by the unit times measured over it."""
    return wall * REFERENCE_S / statistics.fmean(units) if units else wall
