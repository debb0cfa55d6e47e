"""Exact analysis of CTMDPs: discounted values, long-run averages, and the
two product objectives (probability of Buchi acceptance, long-run fraction of
time in accepting states).

Everything reduces to linear algebra on the uniformized embedded chain, read
from the model's choice rows (``Ctmdp.choices``); each policy-iteration round
scores every choice with one sparse product and switches in ``_improve``:

* discounted values solve v = rho + Gamma P v, where Gamma(s) =
  lam(s, a) / (lam(s, a) + alpha) is the expected dwell discount;
* long-run averages come from the bottom strongly connected components of
  the uniformized induced chain, the gain of each, and absorption
  probabilities;
* average optimization is multichain policy iteration (gain stage, then bias
  stage) on the uniformized chain, started from a schedule that plays a
  best-paying row wherever the step reward is maximal and steers every
  other state toward those states along the reachability attractor;
* grading a schedule runs its optimizer's evaluation step on the rows the
  schedule plays, so grading an optimum reproduces it bit for bit;
* a recurrent class's gain and bias are one square solve of the bordered
  system [[I - P, 1], [1^T, 0]]; one LU factorization extends both;
* acceptance probabilities combine maximal-end-component analysis with
  maximal reachability by policy iteration, one exact absorption solve per
  round; its graph passes, the attractors that give the starting schedule
  and the closure of the states that can reach the target, are backward
  searches that visit each state once.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import (Callable, Container, Dict, FrozenSet, List, Optional,
                    Sequence, Set, Tuple)

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .model import ChoiceRows, Ctmdp, CtmdpError, mec_decompose
from .product import ProductCtmdp, Schedule, schedule_from_ids, schedule_to_ids

_TIE_TOL = 1e-9
# strict improvement ends in exact arithmetic; the cap stops a policy
# iteration if solve error ever made two schedules each look better
_MAX_ROUNDS = 500


class ConvergenceError(CtmdpError):
    pass


def _no_convergence(stage: str, rounds: int, switched: int) -> ConvergenceError:
    return ConvergenceError(
        f"{stage} policy iteration did not converge: stopped at round "
        f"{rounds} with {switched} states switched in the last round")


# ---------------------------------------------------------------------------
# Reward specifications

@dataclass(frozen=True)
class RewardSpec:
    """State reward rates (paid per unit time) and transition rewards (paid
    once per transition, keyed by (state, action))."""

    state_rate: np.ndarray
    action_reward: Dict[Tuple[int, int], float] = field(default_factory=dict)


def accepting_rate_spec(num_states: int, accepting: FrozenSet[int]) -> RewardSpec:
    """Rate 1 while in an accepting state, nothing else."""
    rate = np.zeros(num_states)
    for s in accepting:
        rate[s] = 1.0
    return RewardSpec(state_rate=rate)


def alpha_from_gamma(gamma: float, uniform_rate: float) -> float:
    """Continuous discount rate matching per-step discount gamma at rate C."""
    if not (0.0 < gamma < 1.0):
        raise CtmdpError(f"gamma must lie in (0,1), got {gamma}")
    return uniform_rate * (1.0 - gamma) / gamma


def uniformized_reward_spec(m: Ctmdp, spec: RewardSpec, alpha: float,
                            cap: float) -> RewardSpec:
    """Transition rewards adjusted so discounted values are preserved when
    the model is uniformized to exit rate ``cap``.

    A transition of (s, a) happens once per dwell in the original model but
    on average (cap / lam) times as often after uniformization (self-loops
    included), and the dwell discount changes accordingly; scaling each
    transition reward by (alpha + lam) / (alpha + cap) compensates exactly.
    """
    ch = m.choices
    act = _row_rewards(m, spec)
    scaled = act * (alpha + ch.exit) / (alpha + cap)
    adjusted = {key: x for key, x, a in zip(ch.row, scaled.tolist(), act)
                if a != 0.0}
    return RewardSpec(state_rate=spec.state_rate.copy(), action_reward=adjusted)


def step_reward_spec(m: Ctmdp, spec: RewardSpec, cap: float) -> Dict[Tuple[int, int], float]:
    """Per-step rewards on the cap-uniformized chain whose per-step average
    times cap equals the original time average, keyed in choice-row order."""
    return dict(zip(m.choices.row, _step_rewards(m, spec, cap).tolist()))


def _step_rewards(m: Ctmdp, spec: RewardSpec, cap: float) -> np.ndarray:
    """``step_reward_spec`` as one value per choice row."""
    ch = m.choices
    return (spec.state_rate[ch.state] + ch.exit * _row_rewards(m, spec)) / cap


def _row_rewards(m: Ctmdp, spec: RewardSpec) -> np.ndarray:
    """The transition reward of every choice row, by row."""
    ch = m.choices
    act = np.zeros(len(ch.state))
    for key, value in spec.action_reward.items():
        if key in ch.row:
            act[ch.row[key]] = value
    return act


# ---------------------------------------------------------------------------
# Induced-chain plumbing

def _gather(ch: ChoiceRows, rows: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Dense matrix whose row s holds ``data`` (one value per successor entry
    of ``ch``) on the successors of choice row ``rows[s]``."""
    lo = ch.ptr[rows]
    k = ch.ptr[rows + 1] - lo
    entries = np.arange(k.sum()) + np.repeat(lo - (np.cumsum(k) - k), k)
    out = np.zeros((len(rows), len(ch.start) - 1))
    out[np.repeat(np.arange(len(rows)), k), ch.succ[entries]] = data[entries]
    return out


def _dot(ch: ChoiceRows, data: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Every choice row's sum of ``data`` times ``v`` over its successors."""
    return np.add.reduceat(data * v[ch.succ], ch.ptr[:-1])


def _uniform_chain(ch: ChoiceRows, rows: np.ndarray, cap: float) -> np.ndarray:
    """The chain that ``rows`` induce, uniformized to exit rate ``cap``."""
    P = _gather(ch, rows, ch.rate / cap)
    P[np.diag_indices_from(P)] += 1.0 - ch.exit[rows] / cap
    return P


def _first_rows(m: Ctmdp) -> np.ndarray:
    """Each state's first choice row, where the policy iterations start;
    raises on a state with no enabled action."""
    start = m.choices.start
    empty = np.flatnonzero(start[:-1] == start[1:])
    if len(empty):
        s = int(empty[0])
        raise CtmdpError(f"state {s} ({m.state_names[s]}) has no enabled action")
    return start[:-1]


def _improve(ch: ChoiceRows, q: np.ndarray, rows: np.ndarray,
             tol: float) -> np.ndarray:
    """New rows after one step on the scores ``q`` (one per choice row): each
    state scans its rows in action order and leaves its incumbent ``rows[s]``
    only for a score above the best so far by more than ``tol``."""
    best = q[rows]
    new = rows.copy()
    top = np.maximum.reduceat(q, ch.start[:-1])
    for s in np.flatnonzero(top > best + tol).tolist():
        for i in range(ch.start[s], ch.start[s + 1]):
            if q[i] > best[s] + tol:
                new[s], best[s] = i, q[i]
    return new


def _bsccs(P: np.ndarray) -> Tuple[List[List[int]], np.ndarray]:
    """Bottom SCCs of a stochastic matrix plus the SCC id per state."""
    graph = csr_matrix(P > 0)
    ncomp, comp = connected_components(graph, directed=True, connection="strong")
    leaves = np.ones(ncomp, dtype=bool)
    rows, cols = np.nonzero(P > 0)
    leaves[comp[rows[comp[rows] != comp[cols]]]] = False
    out = [sorted(np.flatnonzero(comp == c)) for c in range(ncomp) if leaves[c]]
    return out, comp


def _gain_bias(P: np.ndarray, r: np.ndarray) -> Tuple[float, np.ndarray]:
    """(g, h) of an irreducible stochastic matrix: g + h = r + P h with
    sum(h) = 0, as one square solve of the bordered system
    [[I - P, 1], [1^T, 0]] [h; g] = [r; 0]."""
    k = P.shape[0]
    A = np.ones((k + 1, k + 1))
    A[:k, :k] = np.eye(k) - P
    A[k, k] = 0.0
    x = np.linalg.solve(A, np.append(r, 0.0))
    return float(x[k]), x[:k]


def _absorption(P: np.ndarray, fixed: Set[int]) -> Callable[..., np.ndarray]:
    """Factor I - P[t,t] over the states t outside ``fixed`` once, and return
    ``extend(value, rhs=None)``: it extends a value given on the fixed
    states to the others by solving (I - P[t,t]) v[t] = rhs[t] +
    P[t,fixed] v[fixed]; ``rhs`` defaults to 0, which gives the harmonic
    extension v = P v.

    This is the one place that solves a transient linear system.  LAPACK's
    getrf and getrs, the LU that ``np.linalg.solve`` runs, are called
    directly to skip the wrapper cost that dominates on small chains.
    """
    inside = np.zeros(len(P), dtype=bool)
    inside[list(fixed)] = True
    t, f = np.flatnonzero(~inside), np.flatnonzero(inside)
    if len(t):
        lu, piv, info = dgetrf(np.eye(len(t)) - P[np.ix_(t, t)])
        if info > 0:
            raise np.linalg.LinAlgError("Singular matrix")

    def extend(value: np.ndarray,
               rhs: Optional[np.ndarray] = None) -> np.ndarray:
        out = value.astype(float)
        if len(t):
            b = P[np.ix_(t, f)] @ out[f]
            out[t] = dgetrs(lu, piv, b if rhs is None else rhs[t] + b)[0]
        return out

    return extend


# ---------------------------------------------------------------------------
# Discounted values

def discounted_value(m: Ctmdp, spec: RewardSpec, sigma: np.ndarray,
                     alpha: float) -> np.ndarray:
    """v(s) = E[sum over transitions of e^{-alpha t} rewards] under sigma."""
    base, discount = _discount_rows(m, spec, alpha)
    return _discounted(m.choices, m.choices.lookup(sigma), base, discount)


def _discount_rows(m: Ctmdp, spec: RewardSpec,
                   alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """(base, discount): choice row i scores base[i] + discount[i] (P v)."""
    if alpha <= 0:
        raise CtmdpError(f"alpha must be positive, got {alpha}")
    ch = m.choices
    # base = act + rho / (alpha + lam), discount = lam / (lam + alpha)
    base = _row_rewards(m, spec) + spec.state_rate[ch.state] / (alpha + ch.exit)
    return base, ch.exit / (ch.exit + alpha)


def _discounted(ch: ChoiceRows, rows: np.ndarray, base: np.ndarray,
                discount: np.ndarray) -> np.ndarray:
    """The v = base + discount (P v) of the chain that ``rows`` induce."""
    P = discount[rows][:, None] * _gather(ch, rows, ch.prob)
    return _absorption(P, set())(np.zeros(len(rows)), base[rows])


def discounted_optimal(m: Ctmdp, spec: RewardSpec,
                       alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """Policy iteration for the discounted objective; exact at fixed point."""
    ch = m.choices
    base, discount = _discount_rows(m, spec, alpha)
    rows = _first_rows(m)
    for rounds in range(1, _MAX_ROUNDS + 1):
        sigma = ch.action[rows]
        v = _discounted(ch, rows, base, discount)
        new = _improve(ch, base + discount * _dot(ch, ch.prob, v), rows,
                       _TIE_TOL * max(1.0, float(np.abs(v).max())))
        switched = int(np.count_nonzero(new != rows))
        if not switched:
            return v, sigma
        rows = new
    raise _no_convergence("discounted", rounds, switched)


# ---------------------------------------------------------------------------
# Long-run averages

def average_value(m: Ctmdp, spec: RewardSpec, sigma: np.ndarray) -> np.ndarray:
    """Per-state long-run reward per unit time under the schedule sigma."""
    ch = m.choices
    cap = m.max_exit_rate
    rows = ch.lookup(sigma)
    P = _uniform_chain(ch, rows, cap)
    g, _, recurrent = _recurrent_gain_bias(P, _step_rewards(m, spec, cap)[rows])
    return _absorption(P, recurrent)(g) * cap


def _recurrent_gain_bias(P: np.ndarray, r: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray, Set[int]]:
    """(g, h, recurrent): ``_gain_bias`` of each bottom SCC of P on its
    states and 0 on the others, which are not in ``recurrent``."""
    n = P.shape[0]
    bsccs, _ = _bsccs(P)
    g = np.zeros(n)
    h = np.zeros(n)
    recurrent: Set[int] = set()
    for members in bsccs:
        idx = np.array(members)
        g[idx], h[idx] = _gain_bias(P[np.ix_(idx, idx)], r[idx])
        recurrent |= set(members)
    return g, h, recurrent


def _policy_gain_bias(P: np.ndarray, r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(g, h) with g = P g and g + h = r + P h for a stochastic matrix P."""
    g, h, recurrent = _recurrent_gain_bias(P, r)
    extend = _absorption(P, recurrent)
    g = extend(g)
    return g, extend(h, r - g)


def average_optimal(m: Ctmdp, spec: RewardSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Multichain policy iteration; returns per-state optimal gains and a
    gain-optimal, bias-improved schedule."""
    gains, sigma, _ = _average_optimal(m, spec)
    return gains, sigma


def _average_optimal(m: Ctmdp,
                     spec: RewardSpec) -> Tuple[np.ndarray, np.ndarray, int]:
    """``average_optimal`` plus the number of rounds it took.

    The start plays, in each state with a row whose step reward is the
    maximum over all rows, its first such row, and points every other state
    that can reach those states at the attractor toward them (the others
    keep their first row).  Any schedule is a valid start; this one steers
    the chain into the best-paying states from the first round, where the
    first rows can leave a gain-0 class that the bias stage then climbs out
    of over many rounds while the bias grows without bound.
    """
    ch = m.choices
    cap = m.max_exit_rate
    # the cap-uniformized chain, as ``_uniform_chain`` gathers it
    scaled, stay = ch.rate / cap, 1.0 - ch.exit / cap
    r_step = _step_rewards(m, spec, cap)

    sigma = ch.action[_first_rows(m)]
    paying = np.flatnonzero(r_step == r_step.max())
    states, first = np.unique(ch.state[paying], return_index=True)
    sigma[states] = ch.action[paying[first]]
    _attractor(ch, range(m.num_states), range(len(ch.state)),
               set(states.tolist()), sigma)
    rows = ch.lookup(sigma)

    for rounds in range(1, _MAX_ROUNDS + 1):
        P = _uniform_chain(ch, rows, cap)
        g, h = _policy_gain_bias(P, r_step[rows])
        tol = _TIE_TOL * max(1.0, float(np.abs(g).max()), float(np.abs(h).max()))
        # gain stage: strictly increase P g where possible
        qg = _dot(ch, scaled, g) + stay * g[ch.state]
        gain = _improve(ch, qg, rows, tol)
        # bias stage, in the other states, among their gain-optimal actions
        qb = r_step - g[ch.state] + (_dot(ch, scaled, h) + stay * h[ch.state])
        qb[qg < qg[rows][ch.state] - tol] = -np.inf
        new = np.where(gain != rows, gain, _improve(ch, qb, rows, tol))
        switched = int(np.count_nonzero(new != rows))
        if not switched:
            return g * cap, ch.action[rows], rounds
        stage = "gain" if np.any(gain != rows) else "bias"
        rows = new
    raise _no_convergence(f"average-reward ({stage} stage)", rounds, switched)


# ---------------------------------------------------------------------------
# Product objectives

@dataclass
class CheckResult:
    values: np.ndarray
    schedule: Optional[Schedule]
    initial: int
    iterations: int = 0

    @property
    def value(self) -> float:
        return float(self.values[self.initial])


def _reach_probability(P: np.ndarray, target: Set[int]) -> np.ndarray:
    """Probability of ever hitting ``target`` in the chain P (exact solve)."""
    n = P.shape[0]
    # one backward search over P > 0 from the target: states that cannot
    # reach it at all have probability 0.  Only states outside the target
    # can join, so only their rows give predecessor lists.
    inside = np.zeros(n, dtype=bool)
    inside[list(target)] = True
    rest = np.flatnonzero(~inside)
    src, dst = np.nonzero((P > 0)[rest])
    by_dst = np.argsort(dst, kind="stable")
    ptr = np.searchsorted(dst[by_dst], np.arange(n + 1)).tolist()
    src = rest[src[by_dst]].tolist()
    can = set(target)
    stack = np.unique(dst[inside[dst]]).tolist()
    while stack:
        t = stack.pop()
        for s in src[ptr[t]:ptr[t + 1]]:
            if s not in can:
                can.add(s)
                stack.append(s)
    v = np.zeros(n)
    v[list(target)] = 1.0
    fixed = set(target) | (set(rest.tolist()) - can)
    return np.clip(_absorption(P, fixed)(v), 0.0, 1.0)


def psem_of(p: ProductCtmdp, schedule: Schedule) -> CheckResult:
    """Probability of visiting accepting states infinitely often under a
    fixed schedule."""
    ch = p.ctmdp.choices
    P = _gather(ch, ch.lookup(schedule_to_ids(p, schedule)), ch.prob)
    bsccs, _ = _bsccs(P)
    good: Set[int] = set()
    for members in bsccs:
        if set(members) & p.accepting:
            good |= set(members)
    values = _reach_probability(P, good) if good else np.zeros(p.num_states)
    return CheckResult(values=values, schedule=schedule, initial=p.ctmdp.initial)


def _attractor(ch: ChoiceRows, order: Sequence[int], allowed: Container[int],
               target: Set[int], sigma: np.ndarray) -> None:
    """Point each state of ``order`` outside ``target`` that can reach it
    over the choice rows in ``allowed`` at its first allowed row with a
    successor attracted before it; the others keep their entry of
    ``sigma``.

    This is the existential attractor (Baier & Katoen 2008, Alg. 45-46) as
    one search over the predecessor index, settling each state once.  It
    attracts and picks exactly as sweeping ``order`` until nothing changes,
    with states attracted earlier in a sweep counting: the targets join at
    (0, -1), a state joins at (sweep, its position in ``order``), and a
    state at position ps with an allowed row into a state joined at (k, p)
    can join at (k, ps) if ps > p, else at (k + 1, ps).  A heap settles each
    state at its least such time, by when every state attracted before it
    has settled and shown it the rows into them.
    """
    if target.issuperset(order):
        return
    n = len(ch.start) - 1
    pos = [-1] * n
    for i, s in enumerate(order):
        pos[s] = i
    for t in target:
        pos[t] = -1           # the targets never join through a row
    pptr, prow = (x.tolist() for x in ch.preds)
    state = ch.state.tolist()
    due = [math.inf] * n      # the least sweep each state is queued for
    first = [math.inf] * n    # its least allowed row into an attracted state
    heap = [(0, -1, t) for t in target]
    heapq.heapify(heap)
    while heap:
        k, p, t = heapq.heappop(heap)
        if k > due[t]:
            continue          # queued again for an earlier sweep
        if p >= 0:
            sigma[t] = ch.action[first[t]]
        for r in prow[pptr[t]:pptr[t + 1]]:
            s = state[r]
            ps = pos[s]
            if ps >= 0 and r in allowed:
                if r < first[s]:
                    first[s] = r
                ks = k if ps > p else k + 1
                if ks < due[s]:
                    due[s] = ks
                    heapq.heappush(heap, (ks, ps, s))


def psem_optimal(p: ProductCtmdp) -> CheckResult:
    """Maximal probability of Buchi acceptance, with a witnessing schedule.

    Winning region: states of maximal end-components that contain an
    accepting state.  Inside it, an attractor toward the accepting states
    using only actions that keep the run in its component, one search for
    all components, each iterated in the order of its ``states``.  Outside
    it, policy iteration for maximal reachability of the region, started
    from the attractor toward it over all enabled actions in state order:
    each round solves the induced chain exactly and switches a state's
    action only when that strictly raises its value, so values never drop
    and the final schedule attains them.  ``iterations`` counts the rounds.
    Raises ``CtmdpError`` if a state has no enabled action.
    """
    m = p.ctmdp
    ch = m.choices
    n = m.num_states
    sigma = ch.action[_first_rows(m)]
    mecs = [mec for mec in mec_decompose(m, p.accepting).components
            if mec.accepting]
    target: Set[int] = set().union(*(mec.states for mec in mecs))
    acc = target & p.accepting
    for mec in mecs:
        for s in mec.states & p.accepting:
            sigma[s] = mec.actions[s][0]
    # a component's retained rows stay inside it, so one search over all
    # of them attracts and picks as one search per component would
    kept = {ch.row[(s, a)] for mec in mecs
            for s, acts in mec.actions.items() for a in acts}
    _attractor(ch, [s for mec in mecs for s in mec.states], kept, acc, sigma)
    _attractor(ch, range(n), range(len(ch.state)), target, sigma)

    rows = ch.lookup(sigma)
    settled = np.isin(ch.state, list(target))
    for rounds in range(1, _MAX_ROUNDS + 1):
        v = _reach_probability(_gather(ch, rows, ch.prob), target)
        q = _dot(ch, ch.prob, v)
        q[settled] = -np.inf     # the region keeps its schedule
        new = _improve(ch, q, rows, _TIE_TOL)
        switched = int(np.count_nonzero(new != rows))
        if not switched:
            return CheckResult(values=v,
                               schedule=schedule_from_ids(p, ch.action[rows]),
                               initial=m.initial, iterations=rounds)
        rows = new
    raise _no_convergence("reachability", rounds, switched)


def esem_of(p: ProductCtmdp, schedule: Schedule) -> CheckResult:
    """Long-run fraction of time in accepting states under a fixed schedule."""
    sigma = schedule_to_ids(p, schedule)
    spec = accepting_rate_spec(p.num_states, p.accepting)
    values = average_value(p.ctmdp, spec, sigma)
    return CheckResult(values=values, schedule=schedule, initial=p.ctmdp.initial)


def esem_optimal(p: ProductCtmdp) -> CheckResult:
    """Maximal long-run fraction of time in accepting states, by multichain
    policy iteration; the fixed point is exact.  ``iterations`` counts the
    rounds."""
    spec = accepting_rate_spec(p.num_states, p.accepting)
    gains, sigma, rounds = _average_optimal(p.ctmdp, spec)
    return CheckResult(values=gains, schedule=schedule_from_ids(p, sigma),
                       initial=p.ctmdp.initial, iterations=rounds)


# ---------------------------------------------------------------------------
# Blackwell probing

@dataclass(frozen=True)
class BlackwellReport:
    gammas: Tuple[float, ...]
    schedules: Tuple[Tuple[int, ...], ...]   # discounted-optimal per gamma
    average_schedule: Tuple[int, ...]
    stable_from: Optional[int]               # index where schedules stabilize

    @property
    def stabilized(self) -> bool:
        return self.stable_from is not None


def blackwell_probe(m: Ctmdp, spec: RewardSpec,
                    gammas: Sequence[float]) -> BlackwellReport:
    """Track discounted-optimal schedules as gamma approaches 1 and compare
    with an average-optimal schedule; near 1 the discounted choice should
    stop changing and stay gain-optimal."""
    cap = m.max_exit_rate
    gs, sigma_avg = average_optimal(m, spec)
    schedules = []
    for gamma in gammas:
        alpha = alpha_from_gamma(gamma, cap)
        _, sigma = discounted_optimal(m, spec, alpha)
        schedules.append(tuple(int(x) for x in sigma))
    stable_from: Optional[int] = None
    for i in range(len(schedules)):
        if all(schedules[j] == schedules[i] for j in range(i, len(schedules))):
            stable_from = i
            break
    return BlackwellReport(gammas=tuple(gammas),
                           schedules=tuple(schedules),
                           average_schedule=tuple(int(x) for x in sigma_avg),
                           stable_from=stable_from)
