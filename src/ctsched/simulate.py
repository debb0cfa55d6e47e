"""Transition sampling for CTMDPs.

Randomness goes through ``RngHandle``: a counter-based Philox generator keyed
by (seed, stream name), so the trajectory, exploration and reward-coin streams
are independent and each is reproducible from the seed alone.  A handle's
``uniform`` is the ``__next__`` of an iterator over the generator's doubles,
so one draw is one call into C.

``race`` is the one sampler and holds the one dwell formula: it draws the
dwell time by inverting the exponential CDF, then the successor by bisecting
a list of cumulative rates.  ``sample_transition`` feeds it one (state,
action) row of a Ctmdp; the learners and ``ctsched simulate`` feed it one
action slot of the product, whose successors and cumulative rates the
product derives from its rows on first use.
"""
from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from itertools import accumulate, chain
from typing import Dict, Sequence, Tuple, TypeVar

import numpy as np

from .model import Ctmdp

T = TypeVar("T")

_STREAM_KEYS = {"trajectory": 0x74726a, "coin": 0x636f696e, "exploration": 0x657870}
_BUF = 8192
SEED_LIMIT = 1 << 32


class RngHandle:
    """One named Philox stream.  ``uniform()`` returns its next double in
    [0, 1); the stream is read from the generator ``_BUF`` doubles at a
    time, as Python floats chained into one iterator."""

    def __init__(self, seed: int, stream: str = "trajectory"):
        if stream not in _STREAM_KEYS:
            raise ValueError(f"unknown stream '{stream}'; "
                             f"expected one of {sorted(_STREAM_KEYS)}")
        if not isinstance(seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        # the seed fills the upper half of the 64-bit key, so it takes 32 bits
        if not 0 <= seed < SEED_LIMIT:
            raise ValueError(f"seed must lie in [0, 2**32), got {seed}")
        self.seed = seed
        self.stream = stream
        gen = np.random.Generator(
            np.random.Philox(key=(np.uint64(seed) << np.uint64(32))
                             + np.uint64(_STREAM_KEYS[stream])))
        # a refill never returns None, so the chain of refills never ends
        self.uniform = chain.from_iterable(
            iter(lambda: gen.random(_BUF).tolist(), None)).__next__

    def integers(self, n: int) -> int:
        # reads the same uniforms, so a single stream stays one sequence;
        # u < 1 keeps u * n below any integer n <= 2**53 after rounding, so
        # the pick lies in [0, n)
        return int(self.uniform() * n)


def make_rngs(seed: int) -> Dict[str, RngHandle]:
    return {name: RngHandle(seed, name) for name in _STREAM_KEYS}


def race(successors: Sequence[T], cum: Sequence[float],
         rng: RngHandle) -> Tuple[T, float]:
    """Race rates given cumulatively: returns (successor, dwell time).

    The dwell is drawn first, by inverting the exponential CDF at the exit
    rate ``lam = cum[-1]``, then the successor whose cumulative-rate slot
    holds ``u * lam``.  The bisection never looks at the last slot, so
    rounding past it, which only a subnormal ``lam`` can do, picks the last
    successor: bisect's bound is the clamp.
    """
    lam = cum[-1]
    # u lies in [0, 1): u = 0 gives a dwell of 0, and only u -> 1 would
    # give an infinite one
    dwell = -math.log1p(-rng.uniform()) / lam
    idx = bisect_right(cum, rng.uniform() * lam, 0, len(cum) - 1)
    return successors[idx], dwell


def sample_transition(m: Ctmdp, s: int, a: int,
                      rng: RngHandle) -> Tuple[int, float]:
    """Race the outgoing rates of (s, a): returns (successor, dwell time)."""
    succ, rates = m.successors(s, a)
    t, dwell = race(succ, list(accumulate(rates.tolist())), rng)
    return int(t), dwell
