"""Machine-speed calibration: a fixed kernel timed between the measured calls.

On a shared machine the CPU time one call takes drifts by tens of percent,
both within a run and between runs minutes apart, because other tenants
contend for the core, its caches and its memory bandwidth. A burst of fixed
small-matrix numpy/scipy work (the kind of work riemcond's calls are made
of) is timed between calls, and every call time is scaled by how long the
bursts around it took against REFERENCE_MS:

    scaled_ms = raw_ms * REFERENCE_MS / median(nearby bursts)

The scaled figure reads as the call's CPU time on a machine where one burst
takes REFERENCE_MS. The burst does not touch riemcond, so a change to
riemcond moves scaled times exactly as it moves raw ones; only the
machine's drift cancels. Raw times stay in the run record.
"""

from __future__ import annotations

import statistics

import numpy as np
import scipy.linalg

from env import CLOCK

REFERENCE_MS = 2.5  # fixed; a burst took 2.3-3.5 ms (run medians) on the machine of baseline.json
EVERY_MS = 30.0  # run a burst once this much call CPU time has passed since the last
NEIGHBOURS = 4  # a call is scaled by the median of this many bursts on each side
WARMUP_BURSTS = 20
_REPEAT = 25


class Calibrator:
    """Times bursts of fixed work; maps each measured sample to its local scale."""

    def __init__(self):
        rng = np.random.default_rng(0)  # fixed: the same work on every run
        self._a = rng.standard_normal((3, 4))
        self._b = rng.standard_normal((20, 3))
        self._c = rng.standard_normal((3, 3))
        self.bursts_ns = []
        self._since_ns = float("inf")
        for _ in range(WARMUP_BURSTS):
            self._work()

    def _work(self):
        a, b, c = self._a, self._b, self._c
        for _ in range(_REPEAT):
            scipy.linalg.svd(a)
            np.linalg.qr(b)
            b @ c
            np.linalg.solve(c, c)
            scipy.linalg.svdvals(b)

    def before_call(self) -> int:
        """Run a burst when one is due; return the index of the latest burst."""
        if self._since_ns >= EVERY_MS * 1e6:
            start = CLOCK()
            self._work()
            self.bursts_ns.append(CLOCK() - start)
            self._since_ns = 0
        return len(self.bursts_ns) - 1

    def after_call(self, ns: int) -> None:
        self._since_ns += ns

    def factors(self) -> list:
        """REFERENCE_MS over the median of the bursts around each burst index."""
        b = self.bursts_ns
        return [REFERENCE_MS * 1e6 / statistics.median(b[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1])
                for i in range(len(b))]
