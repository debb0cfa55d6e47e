"""Timings scaled to a reference host speed.

On a shared host the speed of a core drifts by up to a factor of two within
a minute, for interpreted and BLAS code alike (on the 2-core host these
figures come from, a Python loop and a dense solve timed back to back moved
together with correlation 0.86, while their one-second medians doubled).
Unscaled medians of identical code then differ by 50% between runs.  So a
fixed kernel with no ctsched code is timed after every CHUNK_S of measured
work, and each timing is scaled by REF_S / (mean of the kernel times just
before and after it): the figures read as seconds on a host where the kernel
takes REF_S.
"""
from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

CHUNK_S = 0.25      # measured work between two kernel timings, at most about
REF_S = 0.011       # kernel time at the reference speed
# the kernel: dense solves larger than a core's L2 cache (as policy
# iteration's are), many tiny solves (numpy call overhead, as in the checker
# on desk-scale products) and a dictionary loop (the learner's interpreter
# work), about a third of the time each
_DENSE, _DENSE_SOLVES = 450, 2
_SMALL, _SMALL_SOLVES = 6, 600
_LOOP = 15000


class Clock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._dense = (rng.random((_DENSE, _DENSE)) + _DENSE * np.eye(_DENSE),
                       np.ones(_DENSE))
        self._small = (rng.random((_SMALL, _SMALL)) + _SMALL * np.eye(_SMALL),
                       np.ones(_SMALL))
        self.kernel_times: List[float] = []
        self._pending: List[Tuple[Dict[str, float], str, float]] = []
        self._work = 0.0
        self.kernel()           # loads the BLAS code
        self._last = self.kernel()

    def kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(_DENSE_SOLVES):
            np.linalg.solve(*self._dense)
        for _ in range(_SMALL_SOLVES):
            np.linalg.solve(*self._small)
        d: Dict[Tuple[int, int], float] = {}
        for i in range(_LOOP):
            k = (i & 1023, i & 7)
            d[k] = d.get(k, 0.0) * 0.5 + 1.0
        dt = time.perf_counter() - t0
        self.kernel_times.append(dt)
        return dt

    def add(self, dest: Dict[str, float], key: str, seconds: float):
        """Add ``seconds`` of work, once scaled, to ``dest[key]``."""
        self._pending.append((dest, key, seconds))
        self._work += seconds
        if self._work >= CHUNK_S:
            self.flush()

    def flush(self):
        """Scale and book the pending timings; call before reading them."""
        if not self._pending:
            return
        now = self.kernel()
        scale = REF_S / ((self._last + now) / 2.0)
        for dest, key, seconds in self._pending:
            dest[key] = dest.get(key, 0.0) + seconds * scale
        self._pending.clear()
        self._work = 0.0
        self._last = now
