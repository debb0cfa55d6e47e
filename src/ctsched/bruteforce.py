"""Exhaustive-enumeration oracles and random instance generators.

The oracles score every pure schedule with the exact evaluators from the
check module, so they are slow but assumption-free; they are gated to desk
scale (at most 8 states and 3 actions per state).  Generators produce random
CTMDPs, Buchi automata, synthetic marked products, and reward structures for
randomized cross-checks.
"""
from __future__ import annotations

import itertools
import math
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from .automata import BuchiAutomaton, Edge, GAnd, GAp, GNot, GTrue, Guard
from .check import (RewardSpec, _bsccs, _gather, average_value,
                    discounted_value, esem_of, psem_of)
from .model import Ctmdp, CtmdpError
from .product import ProductCtmdp, Schedule, schedule_from_ids

MAX_STATES = 8
MAX_ACTIONS = 3
MAX_SCHEDULES = 50000


def count_schedules(m: Ctmdp) -> int:
    return math.prod(np.diff(m.choices.start).tolist())


def _gate(m: Ctmdp):
    if m.num_states > MAX_STATES:
        raise CtmdpError(
            f"brute force limited to {MAX_STATES} states, got {m.num_states}")
    if np.diff(m.choices.start).max(initial=0) > MAX_ACTIONS:
        raise CtmdpError(
            f"brute force limited to {MAX_ACTIONS} actions per state")
    if count_schedules(m) > MAX_SCHEDULES:
        raise CtmdpError("schedule space too large for brute force")


def schedule_space(m: Ctmdp) -> Iterator[np.ndarray]:
    """All pure schedules as per-state action-id arrays."""
    _gate(m)
    choices = [m.enabled(s) for s in range(m.num_states)]
    for combo in itertools.product(*choices):
        yield np.array(combo, dtype=np.int64)


def _best_schedule(p: ProductCtmdp, grade) -> Tuple[float, Schedule]:
    """Best value at the initial state over all schedules, as ``grade``
    (``psem_of`` or ``esem_of``) scores them, and a schedule attaining it."""
    best, best_sigma = -1.0, None
    for sigma in schedule_space(p.ctmdp):
        val = grade(p, schedule_from_ids(p, sigma)).value
        if val > best + 1e-12:
            best, best_sigma = val, sigma
    return best, schedule_from_ids(p, best_sigma)


def brute_force_psem(p: ProductCtmdp) -> Tuple[float, Schedule]:
    return _best_schedule(p, psem_of)


def brute_force_esem(p: ProductCtmdp) -> Tuple[float, Schedule]:
    return _best_schedule(p, esem_of)


def brute_force_average(m: Ctmdp, spec: RewardSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Per-state maximal gains (elementwise over schedules) and a schedule
    attaining them at the initial state."""
    best_gains: Optional[np.ndarray] = None
    best_sigma: Optional[np.ndarray] = None
    for sigma in schedule_space(m):
        gains = average_value(m, spec, sigma)
        if best_gains is None:
            best_gains, best_sigma = gains, sigma
        else:
            if gains[m.initial] > best_gains[m.initial] + 1e-12:
                best_sigma = sigma
            best_gains = np.maximum(best_gains, gains)
    return best_gains, best_sigma


def brute_force_discounted(m: Ctmdp, spec: RewardSpec,
                           alpha: float) -> np.ndarray:
    """Elementwise maximal discounted values over all pure schedules."""
    best: Optional[np.ndarray] = None
    for sigma in schedule_space(m):
        v = discounted_value(m, spec, sigma, alpha)
        best = v if best is None else np.maximum(best, v)
    return best


def brute_force_mec_pairs(m: Ctmdp) -> FrozenSet[Tuple[int, int]]:
    """All (state, action) pairs that belong to some end-component.

    A pair (s, a) is in an end-component exactly when some pure schedule
    makes s recurrent with sigma(s) = a; collecting recurrent pairs over the
    whole schedule space enumerates them.
    """
    ch = m.choices
    pairs = set()
    for sigma in schedule_space(m):
        bsccs, _ = _bsccs(_gather(ch, ch.lookup(sigma), ch.prob))
        for members in bsccs:
            for s in members:
                pairs.add((s, int(sigma[s])))
    return frozenset(pairs)


# ---------------------------------------------------------------------------
# Random instances

def random_ctmdp(rng: np.random.Generator, num_states: int = 6,
                 max_actions: int = 3, rate_lo: float = 0.5,
                 rate_hi: float = 5.0, ap: Tuple[str, ...] = (),
                 max_schedules: Optional[int] = None) -> Ctmdp:
    """Random model; resamples until the schedule space fits ``max_schedules``."""
    for _ in range(200):
        transitions: List[Tuple[int, int, int, float]] = []
        schedules = 1   # every action drawn below is enabled
        for s in range(num_states):
            k = int(rng.integers(1, max_actions + 1))
            schedules *= k
            for a in range(k):
                deg = int(rng.integers(1, min(3, num_states) + 1))
                succ = rng.choice(num_states, size=deg, replace=False)
                for t in succ:
                    rate = float(rng.uniform(rate_lo, rate_hi))
                    transitions.append((s, a, int(t), rate))
        labels = None
        if ap:
            labels = [frozenset(i for i in range(len(ap)) if rng.random() < 0.4)
                      for _ in range(num_states)]
        if max_schedules is None or schedules <= max_schedules:
            return Ctmdp.from_transitions(
                tuple(f"s{i}" for i in range(num_states)),
                tuple(chr(ord("a") + j) for j in range(max_actions)),
                0, transitions, ap=ap, labels=labels)
    raise CtmdpError("could not sample a model within the schedule budget")


def random_marked_product(rng: np.random.Generator, num_states: int = 6,
                          max_actions: int = 3,
                          max_schedules: Optional[int] = None) -> ProductCtmdp:
    """Synthetic product: a random model with a random accepting set, viewed
    as a product with a trivial one-state automaton coordinate."""
    m = random_ctmdp(rng, num_states, max_actions,
                     max_schedules=max_schedules)
    k = int(rng.integers(1, num_states))
    accepting = frozenset(int(x) for x in
                          rng.choice(num_states, size=k, replace=False))
    pairs = tuple((s, 0) for s in range(m.num_states))
    action_pairs = tuple((a, 0) for a in range(m.num_actions))
    return ProductCtmdp(m, pairs, action_pairs, accepting)


def random_schedule(rng: np.random.Generator, p: ProductCtmdp) -> Schedule:
    sigma = np.array([int(rng.choice(p.ctmdp.enabled(s)))
                      for s in range(p.num_states)], dtype=np.int64)
    return schedule_from_ids(p, sigma)


def random_reward_spec(rng: np.random.Generator, m: Ctmdp,
                       with_action_rewards: bool = True) -> RewardSpec:
    state_rate = rng.uniform(0.0, 2.0, size=m.num_states)
    action_reward: Dict[Tuple[int, int], float] = {}
    if with_action_rewards:
        for key in m.choices.row:
            action_reward[key] = float(rng.uniform(0.0, 2.0))
    return RewardSpec(state_rate=state_rate, action_reward=action_reward)


def _random_guard(rng: np.random.Generator, num_ap: int) -> Guard:
    if num_ap == 0 or rng.random() < 0.2:
        return GTrue()
    lits: List[Guard] = []
    for i in range(num_ap):
        roll = rng.random()
        if roll < 0.4:
            lits.append(GAp(i))
        elif roll < 0.8:
            lits.append(GNot(GAp(i)))
    if not lits:
        return GTrue()
    return lits[0] if len(lits) == 1 else GAnd(tuple(lits))


def random_buchi(rng: np.random.Generator, num_states: int = 3,
                 ap: Tuple[str, ...] = ("g", "p")) -> BuchiAutomaton:
    edges: List[Tuple[Edge, ...]] = []
    for q in range(num_states):
        k = int(rng.integers(1, 4))
        edges.append(tuple(Edge(_random_guard(rng, len(ap)),
                                int(rng.integers(0, num_states)))
                           for _ in range(k)))
    k = int(rng.integers(1, num_states + 1))
    accepting = frozenset(int(x) for x in
                          rng.choice(num_states, size=k, replace=False))
    return BuchiAutomaton(num_states=num_states, initial=0, ap=ap,
                          edges=tuple(edges), accepting=accepting)
