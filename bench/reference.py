"""Reference clock: rescales measured times to a machine of fixed speed.

The benchmark runs on shared hosts whose speed changes by 15-50% for
seconds to minutes at a time, far more than the changes it is meant to
catch.  Between requests the harness runs a short fixed kernel -- a pure
Python subset scan over bitmasks, the kind of loop covernum's perfection
check and subset sweeps run, but none of covernum's code -- at most every
TICK_EVERY seconds.  A request's time is
then multiplied by

    NOMINAL_S / median(kernel times within MARGIN_S of the request)

so it reads as the time on a machine where the kernel takes NOMINAL_S.
A change to covernum moves the request times and not the kernel, so it
shows in full; a slow spell of the machine moves both and cancels.  The
kernel runs with the garbage collector off, so covernum's heap does not
change its time either.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import random
import statistics
from time import perf_counter
from typing import List, Sequence

# Kernel time that defines the reference machine (about its median on a
# 2.1 GHz Xeon vCPU under Python 3.11).
NOMINAL_S = 0.0003
TICK_EVERY = 0.01
MARGIN_S = 0.1
# a set-up probe ticks for this long before and after it is timed
PROBE_WINDOW_S = 0.1


def _kernel_graph(n: int = 11, p: float = 0.3) -> List[int]:
    rng = random.Random(20261017)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


ROWS = _kernel_graph()


def kernel(rows: Sequence[int] = ROWS) -> int:
    """The 5-vertex subsets whose induced subgraph is 2-regular: a fixed
    amount of interpreter work (tuples from itertools, bit operations)."""
    hits = 0
    for combo in itertools.combinations(range(len(rows)), 5):
        mask = 0
        for v in combo:
            mask |= 1 << v
        for v in combo:
            if (rows[v] & mask).bit_count() != 2:
                break
        else:
            hits += 1
    return hits


class ReferenceClock:
    """Kernel timings taken through a run, and the rescaling they give."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.times: List[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        gc.disable()
        try:
            start = perf_counter()
            kernel()
            end = perf_counter()
        finally:
            gc.enable()
        self.starts.append(start)
        self.times.append(end - start)
        self._last = end

    def maybe_tick(self) -> None:
        """A tick if the last one ended TICK_EVERY ago or more."""
        if perf_counter() - self._last >= TICK_EVERY:
            self.tick()

    def tick_for(self, seconds: float) -> None:
        end = perf_counter() + seconds
        while perf_counter() < end:
            self.tick()

    def factor(self, start: float, duration: float) -> float:
        """NOMINAL_S over the median kernel time within MARGIN_S of the
        span [start, start + duration].  A span run between maybe_tick
        calls always has a tick there: the one after it, or, when that
        was not due, one less than TICK_EVERY before its end."""
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, start + duration + MARGIN_S)
        return NOMINAL_S / statistics.median(self.times[lo:hi])

    def scale(self, start: float, duration: float) -> float:
        return duration * self.factor(start, duration)

    def median(self) -> float:
        return statistics.median(self.times)

    def mean_factor(self) -> float:
        """NOMINAL_S over the mean of all kernel times, without the
        fastest and slowest twentieth.  The host can flip between two
        speeds every few tens of milliseconds; a mean weighs both as a
        span of work run between the ticks meets them."""
        times = sorted(self.times)
        cut = len(times) // 20
        return NOMINAL_S / statistics.fmean(times[cut:len(times) - cut])
