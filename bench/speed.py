"""Machine-speed sampling, so that timings survive a host whose speed drifts.

The shared 2-core host this benchmark was tuned on drifts between fast and
slow phases on time scales from a fraction of a second to several seconds:
identical work varies by +-20% from one second to the next, far more than a
regression bound can absorb. A SIGALRM handler therefore runs a tiny fixed
pure-Python loop every INTERVAL_S seconds while items are timed, and each
item's time is reported in reference seconds: its measured seconds times
REF_REP_S over the loop's mean time per repetition around the item. That
is the time the item would take on a machine where one repetition takes
exactly REF_REP_S. The loop does not touch pialg, so a change to the program
moves reference seconds exactly as much as raw seconds; the handler's own
time is subtracted from every item it interrupts.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right

REF_REP_S = 8e-6  # reference seconds per repetition of the loop
SAMPLE_REPS = 25  # one sample: about 0.2 ms
INTERVAL_S = 0.01
WINDOW_S = 0.05  # samples this close to an item also describe it

_ROWS = [[(7 * i + j) % 13 - 6 for j in range(8)] for i in range(8)]


def _work(reps):
    acc = 0
    for _ in range(reps):
        t = tuple(tuple(x * 3 + 1 for x in r) for r in _ROWS)
        acc += sum(a * b for a, b in zip(t[0], t[-1])) % 7
    return acc


def _sample(reps) -> float:
    """Seconds per repetition, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work(reps)
        return (time.perf_counter() - t0) / reps
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Samples the machine's speed from SIGALRM while the `with` block runs."""

    def __init__(self):
        self.at = array("d")
        self.per_rep = array("d")
        self.spent = 0.0  # seconds spent inside the handler

    def _tick(self, signum, frame):
        t_in = time.perf_counter()
        self.per_rep.append(_sample(SAMPLE_REPS))
        self.at.append(t_in)
        self.spent += time.perf_counter() - t_in

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, t0: float, t1: float) -> float:
        """REF_REP_S over the mean per-repetition time of the samples in
        [t0 - WINDOW_S, t1 + WINDOW_S], the slowest and fastest tenth dropped
        (those are interrupts, not phases)."""
        lo = bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect_right(self.at, t1 + WINDOW_S)
        if hi <= lo:
            raise RuntimeError("no speed sample near an item; is SIGALRM blocked?")
        xs = sorted(self.per_rep[lo:hi])
        cut = len(xs) // 10
        return REF_REP_S / statistics.mean(xs[cut:len(xs) - cut])
