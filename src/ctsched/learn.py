"""Model-free Q-learning of schedules on the model x automaton product.

Both trainers step on the ids of ``build_product``'s product, which the
checker and ``ctsched simulate`` share: a product state's actions (a, q')
combine a model action with a resolution of the automaton's
nondeterminism.  The first run derives the product's columns from its rows,
and every later run reads them.  ``_train`` owns the Q-values and visit
counts, by the product's ids, zeroed over all rows; a state without actions
raises CtmdpError, as in the checker.
Two trainers share the Q machinery:

* ``learn_sat`` maximizes the probability of visiting accepting states
  forever.  Transitions out of accepting states pay 1 with probability
  1 - zeta; a payout ends the episode and the update bootstraps a terminal
  value of 0, so Q(s, a) estimates the probability that the episode ever
  pays out, which for zeta near 1 orders schedules by satisfaction
  probability.

* ``learn_exp`` maximizes the long-run fraction of time spent in accepting
  states.  The reward of a transition is its dwell time if the state being
  left is accepting (``accepting_dwell`` defines it, ``ctsched simulate``
  reports it, the trainer computes it inline); episodes have a fixed length.

Both discount by exp(-alpha * dwell): discounting in continuous time at rate
alpha, with alpha = C (1 - gamma) / gamma (``check.alpha_from_gamma``)
mapping a per-step discount gamma at uniformization rate C onto the
continuous clock.

The trainers step on the product's ids and action slots, drawing dwells and
successors only through ``simulate.race``, the one sampler; a draw from any
stream, exploration and zeta coin too, is one C call.  The update is

    Q(s,a) <- (1-beta) Q(s,a) + beta (r + e^{-alpha dwell} max_a' Q(s',a'))

with beta fixed or 1 / (1 + visits).  ``LearnResult.qtable`` gives the table
keyed by (state pair, action pair), in the order of first update, and the
learned schedule plays in each updated pair its earliest slot of maximal
value.

No step scans a row: the trainer keeps, per row i, its maximum V[i]
and the earliest slot A[i] holding it.  The greedy pick reads A[i] and the
bootstrap V[i'].  A write x to slot k makes k the greedy slot if x > V[i],
or if x == V[i] and k < A[i]; only when the greedy slot itself falls below
V[i] is the row rescanned.  Q-values start at 0 and every target is finite
and non-negative, so no value is NaN or -0.0, and V[i] is max(Q[i]) bit for
bit, with ties going to the earliest slot as a scan with > finds them.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .automata import BuchiAutomaton
from .check import _first_rows, alpha_from_gamma
from .model import Ctmdp
from .product import (ActionPair, ProductCtmdp, Schedule, StatePair,
                      TRAP_PAIR, build_product)
from .product import OnTheFlyProductEnv  # noqa: F401  (perfbench's import)
from .simulate import make_rngs, race


# Default per-step discounts.  Satisfaction values live in [0, 1] and need a
# long horizon to separate recurrent classes, so gamma is pushed close to 1.
# Expectation values scale like gain / alpha, so the same gamma would produce
# Q magnitudes in the thousands that constant-step updates cannot reach within
# the episode budget; a shorter horizon keeps them O(10).  The exact optimum
# of the discounted objective at 0.99 (``discounted_optimal``, reward 1/E on
# each accepting row) is ESem-optimal on riskreward, mars, polling2 and
# polling K=8/20, but not on the hazard line (base rates): ``esem_of`` grades
# it 0.8889 against 0.9017 at N=30 and 0.4510 against 0.4985 at N=200.
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

    def __post_init__(self):
        if self.gamma is not None and not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must lie in (0,1), got {self.gamma}")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must lie in (0,1], got {self.beta}")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in [0,1], got {self.epsilon}")
        if not (0.0 < self.zeta < 1.0):
            raise ValueError(f"zeta must lie in (0,1), got {self.zeta}")
        for name in ("ep_len", "ep_n"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value <= 0:
                raise ValueError(
                    f"{name} must be a positive integer, got {value!r}")
        if not self.tol >= 0.0:  # NaN fails too: it would never stop early
            raise ValueError(f"tol must be non-negative, got {self.tol}")

    def alpha_for(self, uniform_rate: float, satisfaction: bool = True) -> float:
        gamma = self.gamma
        if gamma is None:
            gamma = SAT_GAMMA if satisfaction else EXP_GAMMA
        return alpha_from_gamma(gamma, uniform_rate)


@dataclass
class QTable:
    """Learned Q-values and visit counts keyed (state pair, action pair), in
    the order of each entry's first update; a missing entry is 0."""

    q: Dict[Tuple[StatePair, ActionPair], float] = field(
        default_factory=dict)
    visits: Dict[Tuple[StatePair, ActionPair], int] = field(
        default_factory=dict)


def accepting_dwell(accepting: bool, dwell: float) -> float:
    """Expectation reward of a transition: its dwell if the state left is
    accepting, else 0."""
    return dwell if accepting else 0.0


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


def _train(m: Ctmdp, p: ProductCtmdp, hp: Hyperparams, seed: int,
           satisfaction: bool) -> LearnResult:
    _first_rows(p.ctmdp)   # raises on a state without actions
    acts, succ, cum = p.acts, p.succ, p.cum
    acc = [i in p.accepting for i in range(len(acts))]
    rngs = make_rngs(seed)
    traj, explore = rngs["trajectory"], rngs["exploration"]
    explore_u, coin_u, exp = explore.uniform, rngs["coin"].uniform, math.exp
    alpha = hp.alpha_for(m.max_exit_rate, satisfaction=satisfaction)
    Q = [[0.0] * len(r) for r in acts]
    N = [[0] * len(r) for r in acts]
    # per row: V[i] == max(Q[i]) and A[i] its earliest slot
    V = [0.0] * len(acts)
    A = [0] * len(acts)
    init = p.ctmdp.initial
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
        for t in range(hp.ep_len):
            qi = Q[i]
            if epsilon > 0.0 and explore_u() < epsilon:
                k = explore.integers(len(qi))
            else:
                k = A[i]  # the earliest slot of the row's maximum
            i2, dwell = race(succ[i][k], cum[i][k], traj)
            payout = satisfaction and acc[i] and coin_u() < fail_pay
            if payout:
                # payout absorbs the run; nothing left to bootstrap
                target = 1.0
            else:
                r = dwell if not satisfaction and acc[i] else 0.0
                target = r + exp(-alpha * dwell) * V[i2]
            ni = N[i]
            n = ni[k]
            if not n:
                updated.append((i, k))
            if decay_beta:
                beta = 1.0 / (1 + n)
            x = qi[k] = (1.0 - beta) * qi[k] + beta * target
            ni[k] = n + 1
            v = V[i]
            if x > v:
                V[i], A[i] = x, k
            elif x < v:
                if k == A[i]:  # the greedy slot fell: rescan its row
                    v = max(qi)
                    V[i], A[i] = v, qi.index(v)
            elif k < A[i]:
                A[i] = k
            if payout:
                break
            i = i2
        steps += t + 1
        if episodes % _CHECK_EVERY == 0:
            est = V[init]
            if history and abs(est - history[-1]) < hp.tol:
                stable += 1
                if stable >= _STABLE_CHECKS:
                    history.append(est)
                    converged = True
                    break
            else:
                stable = 0
            history.append(est)

    estimate = V[init]
    if not satisfaction:
        # undo the discounting: for small alpha, alpha * v approximates the
        # long-run time average of the reward rate
        estimate *= alpha
    table, schedule = QTable(), {}
    for i, k in updated:
        pair, ai, qi = p.pairs[i], acts[i], Q[i]
        table.q[(pair, ai[k])] = qi[k]
        table.visits[(pair, ai[k])] = N[i][k]
        if pair != TRAP_PAIR and pair not in schedule:
            schedule[pair] = ai[A[i]]
    return LearnResult(qtable=table, schedule=schedule, estimate=estimate,
                       episodes_run=episodes, steps_run=steps,
                       converged=converged, alpha=alpha, history=history)


def learn_sat(m: Ctmdp, a: BuchiAutomaton, hp: Optional[Hyperparams] = None,
              seed: int = 0) -> LearnResult:
    """Learn a schedule maximizing the probability of Buchi acceptance."""
    hp = hp or Hyperparams()
    return _train(m, build_product(m, a), hp, seed, satisfaction=True)


def learn_exp(m: Ctmdp, a: BuchiAutomaton, hp: Optional[Hyperparams] = None,
              seed: int = 0) -> LearnResult:
    """Learn a schedule maximizing the long-run fraction of accepting time."""
    hp = hp or Hyperparams()
    return _train(m, build_product(m, a), hp, seed, satisfaction=False)
