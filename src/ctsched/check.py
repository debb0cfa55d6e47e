"""Exact analysis of CTMDPs: discounted values, long-run averages, and the
two product objectives (probability of Buchi acceptance, long-run fraction of
time in accepting states).

Everything reduces to linear algebra on chains read from the model's choice
rows (``Ctmdp.choices``); each policy-iteration round scores every choice
with one sparse product and switches in ``_improve``.  The chain a schedule
induces is a CSR (``Chain``) taken straight from the rows it plays, whose
systems are D - P: D is the identity, except that long-run averages put
the rate of leaving / cap on it and so solve the balance equations of the
chain uniformized at the maximal exit rate cap, with no self-loop entry.
The graph passes read its entries, and ``_factor`` is the one place that
factors a system: dense LAPACK LU while the system's rows fit in
``_DENSE_MAX`` squared entries, SuperLU above, so no large chain is held
dense:

* discounted values solve v = rho + Gamma P v, where Gamma(s) =
  lam(s, a) / (lam(s, a) + alpha) is the expected dwell discount;
* long-run averages come from the bottom strongly connected components of
  the induced chain, the gain of each, and absorption probabilities, all
  solved on its uniformized balance equations;
* average optimization is multichain policy iteration (gain stage, then bias
  stage) on those equations, started from a schedule that plays a
  best-paying row wherever the step reward is maximal and steers every
  other state toward those states along the reachability attractor;
* grading a schedule runs its optimizer's evaluation step on the rows the
  schedule plays, so grading an optimum reproduces it bit for bit;
* a recurrent class's gain and bias are one square solve of the pinned
  system: h is 0 at one state of the class, whose column of D - P carries
  g instead, and h is then shifted to sum 0; one LU factorization of the
  transient states extends both;
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
from typing import (Callable, Container, Dict, FrozenSet, List, NamedTuple,
                    Optional, Sequence, Set, Tuple)

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse import csc_matrix, csr_array
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

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

# A system is factored dense by LAPACK while the rows of its states fit in a
# dense block of this value squared entries, so every system of a chain of
# at most this many states is, and by SuperLU otherwise: below the measured
# crossover (CHANGES.md) the sparse path's fixed cost dominates, above it
# the dense LU's cubic work.
_DENSE_MAX = 256


class Chain(NamedTuple):
    """A finite Markov chain in CSR layout: row s has the entries
    ``data[ptr[s]:ptr[s + 1]]`` in the columns ``col[ptr[s]:ptr[s + 1]]``,
    every entry positive and no column twice in a row.  Its systems are
    D - P, with D the diagonal ``diag``, or the identity if that is None."""

    ptr: np.ndarray
    col: np.ndarray
    data: np.ndarray
    diag: Optional[np.ndarray] = None


def _entries(ptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(counts, entries): the number of entries of each of ``rows`` in a
    CSR with row pointer ``ptr``, and their indices, row after row."""
    lo = ptr[rows]
    k = ptr[rows + 1] - lo
    return k, np.arange(k.sum()) + np.repeat(lo - (np.cumsum(k) - k), k)


def _gather(ch: ChoiceRows, rows: np.ndarray, data: np.ndarray) -> Chain:
    """The chain whose row s holds ``data`` (one value per successor entry
    of ``ch``) on the successors of choice row ``rows[s]``."""
    k, entries = _entries(ch.ptr, rows)
    return Chain(np.concatenate(([0], np.cumsum(k))), ch.succ[entries],
                 data[entries])


def _sources(P: Chain) -> np.ndarray:
    """The row of every entry of P."""
    return np.repeat(np.arange(len(P.ptr) - 1), np.diff(P.ptr))


def _dot(ch: ChoiceRows, data: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Every choice row's sum of ``data`` times ``v`` over its successors."""
    return np.add.reduceat(data * v[ch.succ], ch.ptr[:-1])


def _uniform_chain(ch: ChoiceRows, rows: np.ndarray, cap: float) -> Chain:
    """The chain that ``rows`` induce, uniformized to exit rate ``cap``, with
    no self-loop entry: its systems are diag(out / cap) - R / cap, with R
    the rates to other states and out their sum, the balance equations of
    the chain scaled by 1 / cap."""
    lf = ch.loop_free
    return _gather(lf, rows, lf.rate / cap)._replace(diag=lf.exit[rows] / cap)


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
             tol: float | np.ndarray) -> np.ndarray:
    """New rows after one step on the scores ``q`` (one per choice row): each
    state scans its rows in action order and leaves its incumbent ``rows[s]``
    only for a score above the best so far by more than its ``tol``, one
    value for all states or one per state."""
    best = q[rows]
    new = rows.copy()
    top = np.maximum.reduceat(q, ch.start[:-1])
    for s in np.flatnonzero(top > best + tol).tolist():
        margin = tol[s] if isinstance(tol, np.ndarray) else tol
        for i in range(ch.start[s], ch.start[s + 1]):
            if q[i] > best[s] + margin:
                new[s], best[s] = i, q[i]
    return new


def _bsccs(P: Chain) -> Tuple[List[List[int]], np.ndarray]:
    """Bottom SCCs of a chain, each sorted, in order of their SCC id, plus
    the SCC id per state."""
    n = len(P.ptr) - 1
    graph = csr_array((P.data, P.col.astype(np.int32), P.ptr.astype(np.int32)),
                      shape=(n, n))
    ncomp, comp = connected_components(graph, directed=True,
                                       connection="strong")
    tail = comp[_sources(P)]
    leaves = np.ones(ncomp, dtype=bool)
    leaves[tail[tail != comp[P.col]]] = False
    members = np.flatnonzero(leaves[comp])
    members = members[np.argsort(comp[members], kind="stable")]
    cut = np.flatnonzero(np.diff(comp[members])) + 1
    bottom = np.split(members, cut) if len(members) else []
    return [x.tolist() for x in bottom], comp


def _factor(P: Chain, t: np.ndarray, f: np.ndarray, pinned: bool = False
            ) -> Tuple[Callable[[np.ndarray], np.ndarray],
                       Callable[[np.ndarray], np.ndarray]]:
    """Factor A = D[t, t] - P[t, t] over the states ``t`` once (D as in
    ``Chain``), with its first column all ones if ``pinned``, and return
    ``(solve, couple)``:
    ``solve(b)`` is A^-1 b and ``couple(x)`` is P[t, f] x for x given on
    the states ``f``.

    This is the one place that factors a matrix.  While the rows of ``t``
    fit in a dense block of ``_DENSE_MAX`` squared entries, that block
    gives A and P[t, f], and A goes to LAPACK's getrf and getrs, called
    directly to skip the wrapper cost that dominates on small chains;
    otherwise A is assembled sparse and goes to SuperLU (``splu``) with its
    default COLAMD ordering.  A singular A raises ``np.linalg.LinAlgError``
    on both.
    """
    n, k = len(P.ptr) - 1, len(t)
    counts, entries = _entries(P.ptr, t)
    i, j, p = np.repeat(np.arange(k), counts), P.col[entries], P.data[entries]
    d = np.ones(k) if P.diag is None else P.diag[t]
    if k * n <= _DENSE_MAX ** 2:
        block = np.zeros((k, n))
        block[i, j] = p
        A = np.diag(d) - block[:, t]
        if pinned:
            A[:, 0] = 1.0
        lu, piv, info = dgetrf(A)
        if info > 0:
            raise np.linalg.LinAlgError("Singular matrix")
        B = block[:, f]

        def solve(b: np.ndarray) -> np.ndarray:
            return dgetrs(lu, piv, b)[0]

        def couple(x: np.ndarray) -> np.ndarray:
            return B @ x
        return solve, couple

    pos = np.zeros(n, dtype=np.int64)
    pos[t] = np.arange(k)
    pos[f] = np.arange(len(f))
    into = np.zeros(n, dtype=bool)
    into[t] = True
    into = into[j]
    # A as (row, column, value) triplets; csc_matrix adds repeats up
    diag = np.arange(k)
    rows = np.concatenate((i[into], diag))
    cols = np.concatenate((pos[j[into]], diag))
    vals = np.concatenate((-p[into], d))
    if pinned:
        keep = cols != 0
        rows = np.concatenate((rows[keep], diag))
        cols = np.concatenate((cols[keep], np.zeros(k, dtype=np.int64)))
        vals = np.concatenate((vals[keep], np.ones(k)))
    try:
        lu = splu(csc_matrix((vals, (rows, cols)), shape=(k, k)))
    except RuntimeError as exc:     # "Factor is exactly singular"
        raise np.linalg.LinAlgError(str(exc)) from None
    out = ~into
    fi, fj, fp = i[out], pos[j[out]], p[out]

    def couple(x: np.ndarray) -> np.ndarray:
        return np.bincount(fi, weights=fp * x[fj], minlength=k)
    return lu.solve, couple


def _gain_bias(P: Chain, members: np.ndarray,
               r: np.ndarray) -> Tuple[float, np.ndarray]:
    """(g, h) of the closed irreducible class ``members`` of P, with r and h
    on its states: g + (D - P) h = r with sum(h) = 0, D as in ``Chain``.
    One square solve with h pinned to 0 at the first member, whose column
    carries g, [1, (D - P) e_2, ..., (D - P) e_k] [g; h_2; ...; h_k] = r,
    then h shifted to sum 0."""
    solve, _ = _factor(P, members, members[:0], pinned=True)
    x = solve(r)
    g = float(x[0])
    x[0] = 0.0
    return g, x - x.mean()


def _absorption(P: Chain, fixed: np.ndarray) -> Callable[..., np.ndarray]:
    """Factor (D - P)[t,t] over the states t outside the mask ``fixed``
    once, and return ``extend(value, rhs=None)``: it extends a value given
    on the fixed states to the others by solving (D - P)[t,t] v[t] = rhs[t]
    + P[t,fixed] v[fixed]; ``rhs`` defaults to 0, which gives the harmonic
    extension D v = P v.  This is the one transient linear solve."""
    t, f = np.flatnonzero(~fixed), np.flatnonzero(fixed)
    if len(t):
        solve, couple = _factor(P, t, f)

    def extend(value: np.ndarray,
               rhs: Optional[np.ndarray] = None) -> np.ndarray:
        out = value.astype(float)
        if len(t):
            b = couple(out[f])
            out[t] = solve(b if rhs is None else rhs[t] + b)
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
    P = _gather(ch, rows, ch.prob)
    P.data[:] *= discount[rows][_sources(P)]
    return _absorption(P, np.zeros(len(rows), dtype=bool))(
        np.zeros(len(rows)), base[rows])


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


def _recurrent_gain_bias(P: Chain, r: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, h, recurrent): ``_gain_bias`` of each bottom SCC of P on its
    states and 0 on the others, which the mask ``recurrent`` leaves out."""
    n = len(P.ptr) - 1
    g = np.zeros(n)
    h = np.zeros(n)
    recurrent = np.zeros(n, dtype=bool)
    for members in _bsccs(P)[0]:
        idx = np.array(members)
        g[idx], h[idx] = _gain_bias(P, idx, r[idx])
        recurrent[idx] = True
    return g, h, recurrent


def _policy_gain_bias(P: Chain, r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(g, h) with (D - P) g = 0 and g + (D - P) h = r for a chain P whose
    system D - P has rows that sum to 0 (D as in ``Chain``)."""
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
        # gain stage: strictly increase P g where possible, scored as
        # (R g - exit g(s)) / cap, which is P g less the g(s) that every
        # row of s shares
        qg = (_dot(ch, ch.rate, g) - ch.exit * g[ch.state]) / cap
        gain = _improve(ch, qg, rows, tol)
        # bias stage, in the other states, among their gain-optimal actions
        qb = (r_step - g[ch.state]
              + (_dot(ch, ch.rate, h) - ch.exit * h[ch.state]) / cap)
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


def _reach_probability(P: Chain, target: Set[int]) -> np.ndarray:
    """Probability of ever hitting ``target`` in the chain P (exact solve)."""
    n = len(P.ptr) - 1
    # one backward search over the entries of P from the target: states
    # that cannot reach it at all have probability 0.  Only states outside
    # the target can join, so only their rows give predecessor lists.
    inside = np.zeros(n, dtype=bool)
    inside[list(target)] = True
    src = _sources(P)
    out = ~inside[src]
    src, dst = src[out], P.col[out]
    by_dst = np.argsort(dst, kind="stable")
    ptr = np.searchsorted(dst[by_dst], np.arange(n + 1)).tolist()
    src = src[by_dst].tolist()
    can = inside.tolist()
    stack = np.unique(dst[inside[dst]]).tolist()
    while stack:
        t = stack.pop()
        for s in src[ptr[t]:ptr[t + 1]]:
            if not can[s]:
                can[s] = True
                stack.append(s)
    extend = _absorption(P, inside | ~np.array(can))
    return np.clip(extend(inside.astype(float)), 0.0, 1.0)


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
        # relative to the incumbent's score, so that small values still
        # switch on a real gain; over a score of 0 any positive score wins
        new = _improve(ch, q, rows, _TIE_TOL * q[rows])
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
