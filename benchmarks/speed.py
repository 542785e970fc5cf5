"""Machine-speed reference for normalizing op times.

On a shared host the speed of one CPU drifts by 15-30% over a few seconds
(other tenants' load on the same cores), and CPU time drifts with wall time,
so raw op latencies of two runs minutes apart differ by more than any
useful regression bound.  The benchmark therefore times a fixed kernel
between ops and scales each op's wall time by ``reference_s / kernel time``:
a slow phase of the host slows both and cancels out.  The kernel never calls
monobound, so a faster program cannot move it.  It mixes what monobound
spends its time on: numpy row elimination on a dense matrix and a
pure-Python breadth-first search.
"""

from __future__ import annotations

import bisect
import statistics
from collections import deque
from time import perf_counter

import numpy as np

#: Median kernel time per matrix size on the machine the bounds were set on
#: (2-vCPU Intel Xeon VM at 2.1 GHz, one BLAS thread); scaled times read as
#: seconds there.
REFERENCE_S = {120: 0.006, 200: 0.0115}

#: Kernel runs within this many seconds of an op's midpoint estimate its speed.
WINDOW_S = 0.5

_GRAPH = [[(7 * i + 13 * j) % 300 for j in range(12)] for i in range(300)]


class Kernel:
    """The fixed kernel at one matrix size.  Contention hits row elimination
    harder as the matrix outgrows the caches, so a workload should use the
    size of the matrices its own ops eliminate."""

    def __init__(self, size: int):
        self.reference_s = REFERENCE_S[size]
        rng = np.random.default_rng(12345)
        self._matrix = rng.uniform(-1.0, 1.0, (size, size)) + size * np.eye(size)

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        start = perf_counter()
        m = self._matrix.copy()
        for col in range(m.shape[0] - 1):
            piv = col + int(np.argmax(np.abs(m[col:, col])))
            m[[col, piv]] = m[[piv, col]]
            m[col + 1 :, col] /= m[col, col]
            m[col + 1 :, col + 1 :] -= np.outer(m[col + 1 :, col], m[col, col + 1 :])
        for source in range(0, len(_GRAPH), 30):
            dist = [-1] * len(_GRAPH)
            dist[source] = 0
            queue = deque([source])
            while queue:
                i = queue.popleft()
                for j in _GRAPH[i]:
                    if dist[j] < 0:
                        dist[j] = dist[i] + 1
                        queue.append(j)
        return perf_counter() - start

    def scaled(self, seconds: float, kernel_s: float) -> float:
        """``seconds`` measured next to a kernel run of ``kernel_s`` seconds,
        expressed at the reference machine's speed."""
        return seconds * self.reference_s / kernel_s

    def factors(self, ops: list[tuple[float, float]], runs: list[tuple[float, float]]) -> list[float]:
        """Factor to scale each op to reference speed.

        ``ops`` and ``runs`` (of this kernel) are (start, seconds) pairs in
        time order, with a kernel run before the first op and after the last.
        An op's factor uses the median of the kernel runs within WINDOW_S of
        its midpoint, always including the runs just before and just after it.
        """
        starts = [start for start, _ in runs]
        factors = []
        for start, seconds in ops:
            mid = start + seconds / 2
            before = bisect.bisect_right(starts, start) - 1
            lo = min(bisect.bisect_left(starts, mid - WINDOW_S), before)
            hi = max(bisect.bisect_right(starts, mid + WINDOW_S), before + 2)
            factors.append(self.reference_s / statistics.median(k for _, k in runs[lo:hi]))
        return factors
