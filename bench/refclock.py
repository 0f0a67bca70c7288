"""Durations in reference seconds, steady on a host whose speed drifts.

On a shared host the speed of this process can drift by 20 % and more
over seconds to minutes, which no number of repeats inside a 40 s run
averages away.  `RefClock` therefore times a fixed pure-Python loop
between measured intervals (between gems, after each CLI subprocess,
after each set-up).  An interval's duration in reference seconds is its
wall duration times REF_NOMINAL_S over the mean loop time just before
and just after the segment that holds it.  Drift that slows the loop
and the program alike cancels; a change to gemkit cannot change the
loop, which imports nothing.
"""

from __future__ import annotations

import bisect
import time

REF_ITERATIONS = 900_000
# close to the loop's duration on the 2-vCPU host the benchmark was
# written on, so that reference seconds read close to wall seconds there
REF_NOMINAL_S = 0.06
# a segment is closed at the first checkpoint after it has lasted this long
SEGMENT_S = 0.3


def reference_loop() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(REF_ITERATIONS):
        x += i * i
    return time.perf_counter() - start


class RefClock:
    """Splits the run into segments separated by reference-loop timings."""

    def __init__(self):
        self._starts: list[float] = []
        self._scales: list[float] = []
        self._last = reference_loop()
        self._segment_start = time.perf_counter()

    def checkpoint(self, force: bool = False) -> None:
        """Call between measured intervals.  Closes the current segment
        when forced or when it has lasted SEGMENT_S."""
        if not force and time.perf_counter() - self._segment_start < SEGMENT_S:
            return
        ref = reference_loop()
        self._starts.append(self._segment_start)
        self._scales.append(2 * REF_NOMINAL_S / (self._last + ref))
        self._last = ref
        self._segment_start = time.perf_counter()

    def scale_at(self, t: float) -> float:
        """Scale of the closed segment holding perf_counter time t."""
        return self._scales[bisect.bisect_right(self._starts, t) - 1]

    def seconds(self, start: float, duration: float) -> float:
        """Reference seconds of a wall interval; its segment must be closed."""
        return duration * self.scale_at(start)
