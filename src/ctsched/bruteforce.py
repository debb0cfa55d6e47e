"""Exhaustive-enumeration oracles and random instance generators.

The oracles are assumption-free: they score every pure schedule with the
check module's own evaluation steps, all in one call on the disjoint union
of the chains the schedules induce, whose block-diagonal systems decouple
exactly.  They are gated to desk scale (at most 8 states and 3 actions per
state).  Generators produce random CTMDPs, Buchi automata, synthetic marked
products, and reward structures for randomized cross-checks.
"""
from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .automata import BuchiAutomaton, Edge, GAnd, GAp, GNot, GTrue, Guard
from .check import (Chain, RewardSpec, _average, _bsccs, _discount_rows,
                    _discounted, _first_rows, _gather, _in_unit_interval,
                    _psem, _step_rewards, accepting_rate_spec)
from .model import ChoiceRows, Ctmdp, CtmdpError
from .product import ProductCtmdp, Schedule, schedule_from_ids

MAX_STATES = 8
MAX_ACTIONS = 3


def count_schedules(m: Ctmdp) -> int:
    return math.prod(np.diff(m.choices.start).tolist())


def _gate(m: Ctmdp):
    """Raise above ``MAX_STATES`` states or ``MAX_ACTIONS`` actions in a
    state, so that there are at most 3^8 = 6561 schedules."""
    if m.num_states > MAX_STATES:
        raise CtmdpError(
            f"brute force limited to {MAX_STATES} states, got {m.num_states}")
    if np.diff(m.choices.start).max(initial=0) > MAX_ACTIONS:
        raise CtmdpError(
            f"brute force limited to {MAX_ACTIONS} actions per state")


def _space(m: Ctmdp) -> Tuple[np.ndarray, ChoiceRows]:
    """(rows, U): schedule b (in ``itertools.product`` order) plays row
    rows[b n + s] in state s, and so does state b n + s of U, the union of
    the chains they induce, with successors shifted by b n; row i of U is
    the only row of its state i, so ``U.state`` plays all of U."""
    _gate(m)
    first, ch = _first_rows(m), m.choices
    counts, B = np.diff(ch.start), count_schedules(m)
    rows = (first + np.arange(B)[:, None] // (B // np.cumprod(counts))
            % counts).ravel()
    P = _gather(ch, rows, ch.rate)
    ids = np.arange(len(rows))
    shift = np.repeat(ids - ids % m.num_states, np.diff(P.ptr))
    U = ChoiceRows(start=np.append(ids, len(ids)), state=ids,
                   action=ch.action[rows], ptr=P.ptr, succ=P.col + shift,
                   rate=P.data)
    # row i of U holds the rates of row rows[i], so its cached exit rate is
    # that row's, gathered rather than summed again
    vars(U)["exit"] = ch.exit[rows]
    return rows, U


def _best(m: Ctmdp, U: ChoiceRows,
          values: np.ndarray) -> Tuple[float, np.ndarray]:
    """The best initial value of the schedules' copies in U, and the first
    schedule to beat all those before it by more than 1e-12."""
    n = m.num_states
    at, b = values[m.initial::n].tolist(), 0
    for i, v in enumerate(at):
        if v > at[b] + 1e-12:
            b = i
    return at[b], U.action[b * n:(b + 1) * n]


def _union_gains(m: Ctmdp, spec: RewardSpec) -> Tuple[ChoiceRows, np.ndarray]:
    """(U, g): ``average_value`` of every schedule, on their union U."""
    rows, U = _space(m)
    cap = m.max_exit_rate
    return U, _average(U, U.state, _step_rewards(m, spec, cap)[rows], cap)


def brute_force_psem(p: ProductCtmdp) -> Tuple[float, Schedule]:
    _, U = _space(p.ctmdp)
    accepting = np.isin(U.state % p.num_states, list(p.accepting))
    value, sigma = _best(p.ctmdp, U, _psem(U, U.state, accepting))
    return value, schedule_from_ids(p, sigma)


def brute_force_esem(p: ProductCtmdp) -> Tuple[float, Schedule]:
    spec = accepting_rate_spec(p.num_states, p.accepting)
    U, g = _union_gains(p.ctmdp, spec)
    value, sigma = _best(p.ctmdp, U, _in_unit_interval(g))
    return value, schedule_from_ids(p, sigma)


def brute_force_average(m: Ctmdp, spec: RewardSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Per-state maximal gains (elementwise over schedules) and a schedule
    attaining them at the initial state."""
    U, g = _union_gains(m, spec)
    return g.reshape(-1, m.num_states).max(axis=0), _best(m, U, g)[1]


def brute_force_discounted(m: Ctmdp, spec: RewardSpec,
                           alpha: float) -> np.ndarray:
    """Elementwise maximal discounted values over all pure schedules."""
    rows, U = _space(m)
    base, _ = _discount_rows(m, spec, alpha)
    v = _discounted(U, U.state, base[rows], alpha)
    return v.reshape(-1, m.num_states).max(axis=0)


def brute_force_mec_pairs(m: Ctmdp) -> FrozenSet[Tuple[int, int]]:
    """All (state, action) pairs that belong to some end-component.

    A pair (s, a) is in an end-component exactly when some pure schedule
    makes s recurrent with sigma(s) = a; collecting recurrent pairs over the
    whole schedule space enumerates them.
    """
    _, U = _space(m)
    members, _ = _bsccs(Chain(U.ptr, U.succ, U.rate))
    return frozenset(zip((members % m.num_states).tolist(),
                         U.action[members].tolist()))


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
