"""Machine-speed gauge: wall-clock intervals rescaled to reference seconds.

On a shared host the CPU speed this process gets drifts.  On a 2-vCPU
virtual machine (Intel Xeon, OpenBLAS 0.3.31), a fixed kernel timed in half-second
windows had an interquartile range of 27 % of its median, and whole 10 s runs
of one workload at one seed differed by 30 %.  The gauge times a fixed probe
between trials: matrix-vector products in an interpreter loop, the
instruction mix of a bp_l1 iteration, on matrices of the sizes given.  An
interval is scaled by the probe's speed just before and just after it, so a
slow stretch that slows trial and probe alike cancels out.  A reference
second is a wall second on a machine that runs each probe size in its
NOMINAL_S.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# matrix size -> (matrix-vector products per timing, nominal seconds per timing)
PROBES = {100: (200, 1.5e-3), 400: (30, 1.1e-3), 1000: (4, 1.5e-3)}
TIMINGS = 5             # timings per size and probe; the probe takes their median
INTERVAL_S = 0.5        # probe at most this often between trials


class Gauge:
    def __init__(self, sizes=(100,)):
        rng = np.random.default_rng(0)
        self._mats = {s: rng.standard_normal((s, s)) / np.sqrt(s) for s in sizes}
        self._ends: list[float] = []
        self._slowdown: list[float] = []

    def probe(self) -> None:
        """Time each size; record the mean ratio of measured to nominal time."""
        ratios = []
        for s, a in self._mats.items():
            rounds, nominal = PROBES[s]
            took = []
            for _ in range(TIMINGS):
                t0 = time.perf_counter()
                v = a[:, 0]
                for _ in range(rounds):
                    v = a @ v
                    v = v / np.linalg.norm(v)
                took.append(time.perf_counter() - t0)
            ratios.append(float(np.median(took)) / nominal)
        self._ends.append(time.perf_counter())
        self._slowdown.append(sum(ratios) / len(ratios))

    def maybe_probe(self) -> None:
        if not self._ends or time.perf_counter() - self._ends[-1] >= INTERVAL_S:
            self.probe()

    def reference(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval [start, end].

        Needs a probe that ended by ``start`` and one that ended after ``end``.
        """
        before = bisect.bisect_right(self._ends, start) - 1
        after = bisect.bisect_left(self._ends, end)
        if before < 0 or after == len(self._ends):
            raise ValueError("interval is not bracketed by probes")
        return (end - start) / (0.5 * (self._slowdown[before] + self._slowdown[after]))
