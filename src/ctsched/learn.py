"""Model-free Q-learning of schedules on the model x automaton product.

The product is never materialized: ``OnTheFlyProductEnv`` tracks a pair
(model state, automaton state) and exposes actions (a, q') that combine a
model action with a resolution of the automaton's nondeterminism.  Two
trainers share the Q machinery:

* ``learn_sat`` maximizes the probability of visiting accepting states
  forever.  Transitions out of accepting states pay 1 with probability
  1 - zeta; a payout ends the episode and the update bootstraps a terminal
  value of 0, so Q(s, a) estimates the probability that the episode ever
  pays out, which for zeta near 1 orders schedules by satisfaction
  probability.

* ``learn_exp`` maximizes the long-run fraction of time spent in accepting
  states.  The reward of a transition is its dwell time if the state being
  left is accepting (``accepting_dwell``, which ``ctsched simulate`` also
  reports); episodes have a fixed length.

Both discount by exp(-alpha * dwell): discounting in continuous time at rate
alpha, with alpha = C (1 - gamma) / gamma mapping a per-step discount gamma
at uniformization rate C onto the continuous clock.

The trainers step on integers.  ``_PairTable`` interns each product pair to
an id when it is first met and, when the pair's row is first needed, keeps
per id its action tuple, per action slot the successor ids and cumulative
rates that ``simulate.race`` takes, its accepting flag, and one list of
Q-values and one of visit counts over its action slots.  The update is

    Q(s,a) <- (1-beta) Q(s,a) + beta (r + e^{-alpha dwell} max_a' Q(s',a'))

with beta fixed or 1 / (1 + visits).  ``LearnResult.qtable`` gives the table
keyed by (state pair, action pair), in the order of first update.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from .automata import BuchiAutomaton, step
from .model import Ctmdp
from .product import (ActionPair, Schedule, StatePair, TRAP_ACTION, TRAP_PAIR,
                      _ap_map, automaton_letter)
from .simulate import RngHandle, make_rngs, race


# Default per-step discounts.  Satisfaction values live in [0, 1] and need a
# long horizon to separate recurrent classes, so gamma is pushed close to 1.
# Expectation values scale like gain / alpha, so the same gamma would produce
# Q magnitudes in the thousands that constant-step updates cannot reach within
# the episode budget; a shorter horizon keeps them O(10) while the greedy
# schedule already matches the long-run-average optimum.
SAT_GAMMA = 0.99999
EXP_GAMMA = 0.99


@dataclass
class Hyperparams:
    """Training configuration; the defaults suit models with rates around 1-10.

    ``gamma`` left as None picks a per-objective default: ``SAT_GAMMA`` when
    learning satisfaction probabilities, ``EXP_GAMMA`` when learning the
    expected fraction of accepting time.
    """

    gamma: Optional[float] = None  # per-step discount at the uniformization rate
    beta: float = 0.01          # learning rate
    epsilon: float = 0.1        # exploration probability
    zeta: float = 0.99          # accepting-state continuation probability
    ep_len: int = 300           # max steps per episode
    ep_n: int = 20000           # number of episodes
    tol: float = 0.01           # early-stop tolerance on the initial-state value
    decay_beta: bool = False    # use 1/visit-count learning rates instead
    alpha: Optional[float] = None  # continuous discount rate; overrides gamma

    def __post_init__(self):
        if self.gamma is not None and not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must lie in (0,1), got {self.gamma}")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must lie in (0,1], got {self.beta}")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in [0,1], got {self.epsilon}")
        if not (0.0 < self.zeta < 1.0):
            raise ValueError(f"zeta must lie in (0,1), got {self.zeta}")
        if self.ep_len <= 0 or self.ep_n <= 0:
            raise ValueError("ep_len and ep_n must be positive")

    def alpha_for(self, uniform_rate: float, satisfaction: bool = True) -> float:
        if self.alpha is not None:
            return self.alpha
        gamma = self.gamma
        if gamma is None:
            gamma = SAT_GAMMA if satisfaction else EXP_GAMMA
        return uniform_rate * (1.0 - gamma) / gamma


class QTable:
    """Learned Q-values and visit counts keyed (state pair, action pair), in
    the order of each entry's first update; a missing entry is 0."""

    def __init__(self):
        self.q: Dict[Tuple[StatePair, ActionPair], float] = {}
        self.visits: Dict[Tuple[StatePair, ActionPair], int] = {}

    def best(self, s: StatePair, actions: Tuple[ActionPair, ...]) -> Tuple[ActionPair, float]:
        """Greedy action and value; ties go to the earliest action."""
        best_a = actions[0]
        best_v = self.q.get((s, best_a), 0.0)
        for a in actions[1:]:
            v = self.q.get((s, a), 0.0)
            if v > best_v:
                best_a, best_v = a, v
        return best_a, best_v

    def visited_states(self) -> List[StatePair]:
        seen = []
        marked = set()
        for (s, _a) in self.q:
            if s not in marked:
                marked.add(s)
                seen.append(s)
        return seen


class OnTheFlyProductEnv:
    """Simulates the model x automaton product pair by pair.

    Per-pair transition data (action list, successor pairs, cumulative rates
    as Python floats) is built lazily and cached, so only the reachable
    fragment is ever touched; ``sample`` races a cached row with
    ``simulate.race``, the sampler ``sample_transition`` also uses.
    """

    def __init__(self, m: Ctmdp, a: BuchiAutomaton):
        self.m = m
        self.a = a
        ap_map = _ap_map(m, a)
        self._letters = [automaton_letter(m, a, s, ap_map)
                         for s in range(m.num_states)]
        self._cache: Dict[StatePair, Tuple[Tuple[ActionPair, ...],
                                           Dict[ActionPair, tuple]]] = {}
        self._accepting = a.accepting

    def reset(self) -> StatePair:
        return (self.m.initial, self.a.initial)

    def is_accepting(self, pair: StatePair) -> bool:
        return pair[1] in self._accepting

    def _row(self, pair: StatePair):
        hit = self._cache.get(pair)
        if hit is not None:
            return hit
        s, q = pair
        choices = () if s is None else sorted(step(self.a, q, self._letters[s]))
        if not choices:
            # the trap, and pairs whose automaton run dies, loop in the trap
            entry = ((TRAP_ACTION,), {TRAP_ACTION: ((TRAP_PAIR,), [1.0])})
            self._cache[pair] = entry
            return entry
        actions: List[ActionPair] = []
        data = {}
        for act in self.m.enabled(s):
            succ, rates = self.m.successors(s, act)
            cum = list(accumulate(rates.tolist()))
            for q2 in choices:
                actions.append((act, q2))
                data[(act, q2)] = (tuple((int(t), q2) for t in succ), cum)
        entry = (tuple(actions), data)
        self._cache[pair] = entry
        return entry

    def actions(self, pair: StatePair) -> Tuple[ActionPair, ...]:
        return self._row(pair)[0]

    def sample(self, pair: StatePair, action: ActionPair,
               rng: RngHandle) -> Tuple[StatePair, float]:
        pairs, cum = self._row(pair)[1][action]
        return race(pairs, cum, rng)


def accepting_dwell(accepting: bool, dwell: float) -> float:
    """Expectation reward of a transition: its dwell if the state left is
    accepting, else 0."""
    return dwell if accepting else 0.0


class _PairTable:
    """The trainer's table on integers (see the module docstring).

    Row columns of an id hold None until ``row`` builds them from
    ``OnTheFlyProductEnv._row``; ``succ[i][k]`` and ``cum[i][k]`` are what
    ``race`` takes for action slot k.
    """

    def __init__(self, env: OnTheFlyProductEnv):
        self.env = env
        self.ids: Dict[StatePair, int] = {}
        self.pairs: List[StatePair] = []
        self.accepting: List[bool] = []
        self.actions: List[Optional[Tuple[ActionPair, ...]]] = []
        self.succ: List[Optional[List[Tuple[int, ...]]]] = []
        self.cum: List[Optional[List[List[float]]]] = []
        self.q: List[Optional[List[float]]] = []
        self.visits: List[Optional[List[int]]] = []

    def intern(self, pair: StatePair) -> int:
        i = self.ids.get(pair)
        if i is None:
            i = self.ids[pair] = len(self.pairs)
            self.pairs.append(pair)
            self.accepting.append(self.env.is_accepting(pair))
            for col in (self.actions, self.succ, self.cum, self.q, self.visits):
                col.append(None)
        return i

    def row(self, i: int) -> List[float]:
        """Build the row of id i, interning its successors; returns q[i]."""
        actions, data = self.env._row(self.pairs[i])
        slots = [data[a] for a in actions]
        self.actions[i] = actions
        self.succ[i] = [tuple(map(self.intern, pairs)) for pairs, _ in slots]
        self.cum[i] = [cum for _, cum in slots]
        self.visits[i] = [0] * len(actions)
        q = self.q[i] = [0.0] * len(actions)
        return q

    def qtable(self, updated: List[Tuple[int, int]]) -> QTable:
        """The (id, slot) entries in ``updated`` keyed by pairs, in order."""
        out = QTable()
        for i, k in updated:
            key = (self.pairs[i], self.actions[i][k])
            out.q[key] = self.q[i][k]
            out.visits[key] = self.visits[i][k]
        return out


def extract_schedule(q: QTable, env: OnTheFlyProductEnv) -> Schedule:
    """Greedy schedule on the visited fragment of the product."""
    out: Schedule = {}
    for s in q.visited_states():
        if s == TRAP_PAIR:
            continue
        actions = env.actions(s)
        out[s] = q.best(s, actions)[0]
    return out


@dataclass
class LearnResult:
    qtable: QTable
    schedule: Schedule
    estimate: float            # greedy value at the initial product state
    episodes_run: int
    steps_run: int
    converged: bool
    alpha: float
    history: List[float] = field(default_factory=list)  # estimate per check


_CHECK_EVERY = 500
_STABLE_CHECKS = 4


def _train(env: OnTheFlyProductEnv, hp: Hyperparams, seed: int,
           satisfaction: bool) -> LearnResult:
    rngs = make_rngs(seed)
    traj, coin, explore = rngs["trajectory"], rngs["coin"], rngs["exploration"]
    alpha = hp.alpha_for(env.m.max_exit_rate, satisfaction=satisfaction)
    table = _PairTable(env)
    Q, N, succ, cum, acc = (table.q, table.visits, table.succ, table.cum,
                            table.accepting)
    init = table.intern(env.reset())
    table.row(init)
    updated: List[Tuple[int, int]] = []  # (id, slot) in first-update order
    epsilon, beta, decay_beta = hp.epsilon, hp.beta, hp.decay_beta
    fail_pay = 1.0 - hp.zeta
    steps = 0
    history: List[float] = []
    stable = 0
    converged = False
    episodes = 0
    for episodes in range(1, hp.ep_n + 1):
        i = init
        for _ in range(hp.ep_len):
            qi = Q[i]
            if epsilon > 0.0 and explore.uniform() < epsilon:
                k = explore.integers(len(qi))
            else:
                # the earliest slot of the maximum, as a scan with > finds
                k = qi.index(max(qi))
            i2, dwell = race(succ[i][k], cum[i][k], traj)
            steps += 1
            payout = satisfaction and acc[i] and coin.uniform() < fail_pay
            if payout:
                # payout absorbs the run; nothing left to bootstrap
                target = 1.0
            else:
                q2 = Q[i2]
                if q2 is None:
                    q2 = table.row(i2)
                r = 0.0 if satisfaction else accepting_dwell(acc[i], dwell)
                target = r + math.exp(-alpha * dwell) * max(q2)
            ni = N[i]
            n = ni[k]
            if not n:
                updated.append((i, k))
            if decay_beta:
                beta = 1.0 / (1 + n)
            qi[k] = (1.0 - beta) * qi[k] + beta * target
            ni[k] = n + 1
            if payout:
                break
            i = i2
        if episodes % _CHECK_EVERY == 0:
            est = max(Q[init])
            if history and abs(est - history[-1]) < hp.tol:
                stable += 1
                if stable >= _STABLE_CHECKS:
                    history.append(est)
                    converged = True
                    break
            else:
                stable = 0
            history.append(est)

    estimate = max(Q[init])
    if not satisfaction:
        # undo the discounting: for small alpha, alpha * v approximates the
        # long-run time average of the reward rate
        estimate *= alpha
    q = table.qtable(updated)
    return LearnResult(qtable=q, schedule=extract_schedule(q, env),
                       estimate=estimate, episodes_run=episodes,
                       steps_run=steps, converged=converged, alpha=alpha,
                       history=history)


def learn_sat(m: Ctmdp, a: BuchiAutomaton, hp: Optional[Hyperparams] = None,
              seed: int = 0) -> LearnResult:
    """Learn a schedule maximizing the probability of Buchi acceptance."""
    hp = hp or Hyperparams()
    return _train(OnTheFlyProductEnv(m, a), hp, seed, satisfaction=True)


def learn_exp(m: Ctmdp, a: BuchiAutomaton, hp: Optional[Hyperparams] = None,
              seed: int = 0) -> LearnResult:
    """Learn a schedule maximizing the long-run fraction of accepting time."""
    hp = hp or Hyperparams()
    return _train(OnTheFlyProductEnv(m, a), hp, seed, satisfaction=False)
