"""Host seconds, scaled to a nominal box speed.

This box (and any shared sandbox) flips between a fast and a ~1.7x
slower state every few tens of milliseconds, in episodes that last
minutes: ten runs of one unchanged workload spread by 12-24 % of their
median on raw wall time, and even best-of-rounds per op spreads by
6-11 %, because inside an episode no 0.3 s op runs entirely in the fast
state.  Bracketing an op with a reference computation does not help
either: the state at the op's edges says little about the mix inside it.

So the box's speed is sampled *while the timed call runs*.  An interval
timer (``SIGALRM`` every 5 ms) times a fixed *yardstick* - ~65 us of
pure Python with the simulator's instruction mix (heap, generator
resume, tuple churn) that touches none of ``repro`` - and the call's
wall time is multiplied by the mean of ``NOMINAL_S / yardstick
seconds`` over its samples: the share of nominal-speed work the box
could do in that interval.  The result reads as seconds on a box where
the yardstick always takes ``NOMINAL_S``.  A change to the program
cannot move the yardstick, so its speed-ups and slow-downs still show
in full; the handler costs the timed call ~1.5 %, the same on every
commit.  Measured on a 20-minute recording with episodes, windows of
five samples per op: raw best-of 7.6-11.4 %, raw median 15-21 %, scaled
median 1.9-4.0 % (interquartile range over median).
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from typing import Any, Callable, List, Tuple

#: What one yardstick takes on the box the workload sizes were frozen
#: on, in its fast state: scaled seconds equal wall seconds there.
NOMINAL_S = 64e-6
#: Seconds between speed samples while a call is timed.
INTERVAL_S = 0.005

#: How a list of scaled samples of one op (or one timer) becomes one
#: figure.  The median, not the best: a sample whose yardsticks were
#: themselves hit by a hiccup reads too *fast*, so the minimum of scaled
#: samples is the noisiest statistic there is (16-20 % in the recording
#: above).
typical = statistics.median


def _yardstick(hops: int = 120) -> None:
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop

    def process(index: int):
        now = 0.0
        while True:
            now = yield now + 1.0 + (index % 7) * 0.1

    for index in range(16):
        generator = process(index)
        push(heap, (next(generator), index, generator))
    for _ in range(hops):
        now, index, generator = pop(heap)
        push(heap, (generator.send(now), index, generator))


class Clock:
    """Times calls in scaled seconds.  One per process: it owns the
    ``SIGALRM`` handler and the real-time interval timer."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        _yardstick()
        self._samples.append(time.perf_counter() - start)

    def time(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """``(fn(), scaled seconds, wall seconds)``; an exception
        passes through."""
        self._samples = []
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            start = time.perf_counter()
            value = fn()
            wall = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._sample()
        speed = statistics.fmean(NOMINAL_S / s for s in self._samples)
        return value, wall * speed, wall

    def typical_of(self, fn: Callable[[], Any], repeats: int = 5) -> float:
        """Typical scaled seconds of ``fn``: ``gc.collect()`` before
        each call, gc enabled during it (the
        ``scripts/run_benchmarks.py`` house method)."""
        samples = []
        for _ in range(repeats):
            gc.collect()
            samples.append(self.time(fn)[1])
        return typical(samples)
