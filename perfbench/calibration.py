"""Scaling measured times to a reference host speed.

The benchmark runs on shared machines whose speed drifts: on the 2-core
virtual machine it was tuned on, a fixed pure-Python loop took anywhere from
0.23 s to 0.36 s from one second to the next, and whole 20-second runs were
up to 30 % slower than others.  Medians within a run cannot remove that, so
every timed interval is also scaled by the speed measured around it: a
fixed calibration loop runs between tasks at least every CAL_EVERY_S, and a
time t measured over [start, end] is reported as

    t * REF_CAL_S / median(calibration times within WINDOW_S of [start, end])

that is, in seconds on a host where the calibration loop takes REF_CAL_S.
The calibration code is part of the benchmark and never changes with dbic,
so a change to dbic moves the scaled times exactly as it moves the raw ones
on a steady host.
"""

from __future__ import annotations

import bisect
import statistics
import time

CAL_EVERY_S = 0.1
WINDOW_S = 0.3
# A round figure near the calibration loop's time on the machine the
# benchmark was tuned on (8.7 to 9.3 ms when idle).
REF_CAL_S = 0.01


def calibration_loop() -> int:
    """A fixed mix of what dbic spends its time on: interpreted integer
    arithmetic and small sets, and BFS-style bit tests and updates on a
    65,536-bit integer."""
    acc = 0
    small = {}
    for i in range(30000):
        acc += i * i % 7
        small[i & 255] = acc
    mask = 0
    for i in range(350):
        v = (i * 2654435761) & 0xFFFF
        for w in sorted({(v * 2) & 0xFFFF, (v * 2 + 1) & 0xFFFF,
                         v >> 1, (v >> 1) | 0x8000} - {v}):
            if not (mask >> w) & 1:
                mask |= 1 << w
                acc += 1
    return acc


class Calibrator:
    """Calibration samples of one run and the scale they give an interval."""

    def __init__(self):
        self.clock = time.perf_counter
        self.starts: list[float] = []
        self.times: list[float] = []
        self.last = float("-inf")

    def measure(self) -> None:
        start = self.clock()
        calibration_loop()
        end = self.clock()
        self.starts.append(start)
        self.times.append(end - start)
        self.last = end

    def maybe_measure(self) -> None:
        """Measure unless a measurement ended less than CAL_EVERY_S ago."""
        if self.clock() - self.last > CAL_EVERY_S:
            self.measure()

    def scale(self, start: float, end: float) -> float:
        """REF_CAL_S over the median calibration time around [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi <= lo:
            nearest = min(bisect.bisect_left(self.starts, start),
                          len(self.starts) - 1)
            return REF_CAL_S / self.times[nearest]
        return REF_CAL_S / statistics.median(self.times[lo:hi])
