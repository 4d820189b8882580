"""Core-speed probe that normalizes op times.

On the shared 2-vCPU VM this benchmark was built on, the throughput of a
core drifts by 25% and more from second to second and from minute to
minute, and differently on each core (see NOTES.md).  The benchmark
therefore runs on one pinned core, and a thread of the benchmark process
wakes every ``INTERVAL_S`` to time a fixed burst of Python and small-array
numpy work in its own CPU time on that same core.  An op's normalized time
is its wall time scaled by ``REFERENCE_S / (mean burst time while the op
ran)``: the time the op would take on a core where the burst takes
``REFERENCE_S``.  The probe's share of the core (about 1%) is part of every
timed op on every commit.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

INTERVAL_S = 0.2
REFERENCE_S = 2.0e-3
MIN_SAMPLES = 3


def _burst():
    """Fixed work mixing what pedalis does: integer loops, tiny numpy arrays, dicts."""
    total = 0
    for i in range(7_500):
        total += i * i
    v = np.arange(4.0)
    for _ in range(150):
        w = np.concatenate(([1.0], v[1:] * 2.0))
        v = w / np.max(np.abs(w))
    table = {}
    for i in range(1_500):
        table[(i, i & 7)] = (i * 0.5, str(i))
    return total, v, len(table)


class SpeedProbe:
    """Background sampler of (perf_counter time, burst CPU seconds)."""

    def __init__(self):
        self.points: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(INTERVAL_S):
            t0 = time.thread_time()
            _burst()
            cost = time.thread_time() - t0
            self.points.append((time.perf_counter(), cost))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def median(self) -> float:
        points = list(self.points)
        return statistics.median(c for _, c in points) if points else float("nan")

    def normalized(self, t0: float, t1: float) -> float:
        """Wall time t1 - t0 at the reference core speed.

        Uses the samples taken inside [t0, t1], widened to the nearest
        MIN_SAMPLES samples when the interval holds fewer.
        """
        points = list(self.points)
        times = [t for t, _ in points]
        lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
            if lo > 0 and (hi >= len(times) or t0 - times[lo - 1] <= times[hi] - t1):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise RuntimeError("the speed probe took no samples")
        return (t1 - t0) * REFERENCE_S / statistics.fmean(c for _, c in points[lo:hi])
