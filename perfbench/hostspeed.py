"""Host speed, sampled while the program runs, to scale its timings by.

The benchmark runs on a few cores of a shared machine.  Other tenants do
not add small noise there: they switch the machine into slow phases, 1.5x
or more, that last from a second to minutes, so a whole 30 s run can fall
into one.  No estimator over a run's own passes removes a phase that
covers the run.

So a :class:`Sampler` runs a fixed pure-Python kernel (:func:`sample`) that
lives here, outside the program, every 50 ms of wall time while a pass
runs: a longest-path relaxation over a small DAG with dicts, a heap, float
arithmetic and a sort of small dicts, the same mix of interpreter work as
the scheduler.  A stretch of the pass is scaled by ``REFERENCE_S / kernel``,
with ``kernel`` the host's kernel time around that stretch, which turns it
into seconds on a host where the kernel takes :data:`REFERENCE_S`.  Only
the host's speed cancels: a change to the program moves the stretch and
not the kernel.

The samples are taken from a ``SIGALRM`` handler, so no thread or process
is added: the handler runs on the main thread between two bytecodes of the
program, records how long it took, and that time is taken out of the
stretch it fell into.  Measured on a 2-vCPU shared Xeon during slow phases,
scaling cut the spread of identical ``catalog-offline`` passes from 0.18 to
0.03 (IQR / median); a tight integer loop as the kernel only reached 0.08.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import random
import signal
import statistics
import time
from typing import List, Tuple

__all__ = ["REFERENCE_S", "Sampler", "sample"]

#: Kernel seconds that define the reference host (about its time on a
#: quiet 2.1 GHz Xeon vCPU).  A unit, not a measurement: never change it,
#: or figures before and after stop comparing.
REFERENCE_S = 3.0e-4
#: Wall seconds between two samples.
INTERVAL_S = 0.05
#: Each sample is replaced by the median of this many neighbours (itself
#: included), so that one sample an interrupt stretched skews nothing.
SMOOTHING = 5

_NODES = 120
_RNG = random.Random(12345)
_SUCC: List[List[int]] = [[] for _ in range(_NODES)]
_WEIGHT = {}
for _u in range(_NODES):
    for _v in range(_u + 1, min(_NODES, _u + 8)):
        if _RNG.random() < 0.5:
            _SUCC[_u].append(_v)
            _WEIGHT[_u, _v] = _RNG.random()


def _kernel() -> None:
    dist = {node: 0.0 for node in range(_NODES)}
    heap = [(0.0, 0)]
    seen = set()
    while heap:
        length, node = heapq.heappop(heap)
        if node in seen:
            continue
        seen.add(node)
        for succ in _SUCC[node]:
            longer = length + _WEIGHT[node, succ] * 1.5 + 0.25
            if longer > dist[succ]:
                dist[succ] = longer
                heapq.heappush(heap, (longer, succ))
    sorted(({"node": node, "dist": d} for node, d in dist.items()), key=lambda row: row["dist"])


def sample() -> float:
    """Seconds of one kernel run.

    One run, not the fastest of several: a repeat finds the kernel's data
    already in cache, and then no longer slows down as the program does when
    a neighbour contends for the caches.  The collector is paused so that
    the program's heap does not decide how long the kernel takes.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Kernel samples every :data:`INTERVAL_S` while the ``with`` block runs.

    Stretches are given by their start and end ``time.perf_counter()``
    readings, taken inside the block.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        """``perf_counter()`` when each sample's handler was entered."""
        self.kernels: List[float] = []
        self.stolen: List[Tuple[float, float]] = []
        """(wall, process CPU) seconds each handler call took."""
        self._smoothed: List[float] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        kernel = sample()
        self.starts.append(wall)
        self.kernels.append(kernel)
        self.stolen.append((time.perf_counter() - wall, time.process_time() - cpu))

    def __enter__(self) -> "Sampler":
        for _ in range(20):
            sample()  # specialise the kernel's bytecode before it counts
        # One sample before the block, so that a block shorter than the
        # interval (a faster program's pass) still has a nearest sample.
        self._handler(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        half = SMOOTHING // 2
        self._smoothed = [
            statistics.median(self.kernels[max(0, k - half): k + half + 1])
            for k in range(len(self.kernels))
        ]

    def taken(self, start: float, end: float) -> Tuple[float, float]:
        """(wall, CPU) seconds the handler took within ``[start, end)``."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        inside = self.stolen[first:last]
        return sum(wall for wall, _ in inside), sum(cpu for _, cpu in inside)

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per host second over ``[start, end)``.

        The mean over the samples taken within the stretch, or the nearest
        sample's for a stretch shorter than the interval between samples.
        """
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        if last > first:
            return statistics.fmean(REFERENCE_S / k for k in self._smoothed[first:last])
        middle = (start + end) / 2
        nearest = min(
            (k for k in (first - 1, first) if 0 <= k < len(self.starts)),
            key=lambda k: abs(self.starts[k] - middle),
        )
        return REFERENCE_S / self._smoothed[nearest]
