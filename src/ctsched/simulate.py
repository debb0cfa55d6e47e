"""Transition sampling for CTMDPs.

Randomness goes through ``RngHandle``: a counter-based Philox generator keyed
by (seed, stream name), so the trajectory, exploration and reward-coin streams
are independent and each is reproducible from the seed alone.

``race`` is the one sampler: it draws the dwell time by inverting the
exponential CDF, then the successor by bisecting a list of cumulative rates.
``sample_transition`` feeds it one (state, action) row of a Ctmdp; the
learner and ``OnTheFlyProductEnv.sample`` feed it one action slot of the
product table.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple, TypeVar

import numpy as np

from .model import Ctmdp

T = TypeVar("T")

_STREAM_KEYS = {"trajectory": 0x74726a, "coin": 0x636f696e, "exploration": 0x657870}
_BUF = 8192
SEED_LIMIT = 1 << 32


class RngHandle:
    """One named Philox stream.  ``uniform()`` draws from a buffer of Python
    floats, refilled from the generator ``_BUF`` doubles at a time."""

    def __init__(self, seed: int, stream: str = "trajectory"):
        if stream not in _STREAM_KEYS:
            raise ValueError(f"unknown stream '{stream}'; "
                             f"expected one of {sorted(_STREAM_KEYS)}")
        # the seed fills the upper half of the 64-bit key, so it takes 32 bits
        if not 0 <= seed < SEED_LIMIT:
            raise ValueError(f"seed must lie in [0, 2**32), got {seed}")
        self.seed = seed
        self.stream = stream
        self._gen = np.random.Generator(
            np.random.Philox(key=(np.uint64(seed) << np.uint64(32))
                             + np.uint64(_STREAM_KEYS[stream])))
        self._buf: List[float] = []
        self._pos = 0

    def uniform(self) -> float:
        if self._pos >= len(self._buf):
            self._buf = self._gen.random(_BUF).tolist()
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return u

    def integers(self, n: int) -> int:
        # uses the buffered uniforms so a single stream stays one sequence
        return min(int(self.uniform() * n), n - 1)


def make_rngs(seed: int) -> Dict[str, RngHandle]:
    return {name: RngHandle(seed, name) for name in _STREAM_KEYS}


def sample_dwell(lam: float, rng: RngHandle) -> float:
    """Exponential dwell via inverse CDF; ``lam`` is the exit rate."""
    u = rng.uniform()
    # u == 0 would give dwell inf; the buffer never returns exactly 1.0
    return -math.log1p(-u) / lam


def race(successors: Sequence[T], cum: Sequence[float],
         rng: RngHandle) -> Tuple[T, float]:
    """Race rates given cumulatively: returns (successor, dwell time).

    The dwell is drawn first, then the successor whose cumulative-rate slot
    holds ``u * cum[-1]``; rounding past the last slot picks the last one.
    """
    lam = cum[-1]
    dwell = sample_dwell(lam, rng)
    idx = bisect_right(cum, rng.uniform() * lam)
    return successors[min(idx, len(successors) - 1)], dwell


def sample_transition(m: Ctmdp, s: int, a: int,
                      rng: RngHandle) -> Tuple[int, float]:
    """Race the outgoing rates of (s, a): returns (successor, dwell time)."""
    succ, rates = m.successors(s, a)
    t, dwell = race(succ, list(accumulate(rates.tolist())), rng)
    return int(t), dwell
