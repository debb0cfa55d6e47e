"""Exact analysis of CTMDPs: discounted values, long-run averages, and the
two product objectives (probability of Buchi acceptance, long-run fraction of
time in accepting states).

Everything reduces to linear algebra on chains read from the model's choice
rows (``Ctmdp.choices``); each policy-iteration round scores every choice
with one sparse product and switches in ``_improve``, which scans, in plain
Python floats, only the states whose top score clears their tolerance.  The
chain a schedule induces is a CSR (``Chain``) that one builder,
``_induced``, gathers from the rows it plays with no self-loop entry; its
systems are D - P, with the rate of leaving on D, so no diagonal is formed
as 1 - p_ss.  The graph passes read its entries, and ``_factor`` is the one
place that assembles and factors a system: dense LAPACK LU while it has at
most ``_DENSE_MAX`` unknowns, SuperLU on a CSC built straight from its
entries above, so no large system is held dense:

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
  schedule plays, so grading an ESem, average or discounted optimum
  reproduces it bit for bit; grading a PSem optimum agrees to a few ulps
  only, since ``psem_of`` solves toward the played chain's good bottom
  classes and ``psem_optimal`` toward the accepting-MEC region; the
  brute-force oracles run the same row-level steps (``_psem``,
  ``_average``, ``_discounted``) once on the union of every schedule's chain;
* the gains and biases of all recurrent classes are one square solve of
  the pinned system: the classes are closed, so their blocks of D - P
  decouple; in each, h is 0 at one state, whose column carries the
  indicator of the class and so its g, and h is then shifted to sum 0 over
  the class; one LU factorization of the transient states extends both;
* acceptance probabilities combine the model's cached end-component masks
  (``ChoiceRows.mec``) with maximal reachability by policy iteration, one
  exact absorption solve per round; the one backward search,
  ``_attractor``, breadth-first over the predecessor index in plain lists
  (a per-level array pass pays its fixed cost once per level, and the
  hazard line has about one level per state), gives the starting schedules
  and the closure of the states that can reach the target, and a value
  outside [0, 1] raises.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse import csc_array, csr_array
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .model import ChoiceRows, Ctmdp, CtmdpError
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


def _mask(n: int, index: Sequence[int]) -> np.ndarray:
    """The length-n boolean mask that is True at ``index`` (list or array)."""
    out = np.zeros(n, dtype=bool)
    out[index] = True
    return out


def accepting_rate_spec(num_states: int, accepting: FrozenSet[int]) -> RewardSpec:
    """Rate 1 while in an accepting state, nothing else."""
    return RewardSpec(
        state_rate=_mask(num_states, list(accepting)).astype(float))


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

# A system of k unknowns is factored dense by LAPACK while k is at most
# this value, and by SuperLU otherwise: below it the sparse path's fixed
# cost dominates, above it the dense LU's cubic work.  Every system of one
# round of each benchmark workload, factored both ways (CHANGES.md): dense
# won every one with k <= 96 and 21 of the 27 with 97 <= k <= 128, sparse
# every one above 128; summed per workload and metric, this cutoff is
# within 0.1 ms of the faster branch everywhere, where 96 loses 0.2 ms on
# the polling oracle and 64 loses 0.9 ms on the learner's oracle.
_DENSE_MAX = 128


class Chain(NamedTuple):
    """A finite Markov chain in CSR layout: row s has the entries
    ``data[ptr[s]:ptr[s + 1]]`` in the columns ``col[ptr[s]:ptr[s + 1]]``,
    every entry positive and no column twice in a row.  Its systems are
    D - P, with D the diagonal ``diag``, or the identity if that is None;
    a chain that ``_factor`` solves has no self-loop entry, its weight
    being on D (``_induced`` puts the rate of leaving there)."""

    ptr: np.ndarray
    col: np.ndarray
    data: np.ndarray
    diag: Optional[np.ndarray] = None


def _entries(ptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(counts, entries): the number of entries of each of ``rows`` in a
    CSR with row pointer ``ptr``, and their indices, row after row."""
    lo = ptr[rows]
    k = ptr[rows + 1] - lo
    return k, np.arange(k.sum()) + (lo - k.cumsum() + k).repeat(k)


def _gather(ch: ChoiceRows, rows: np.ndarray, data: np.ndarray) -> Chain:
    """The chain whose row s holds ``data`` (one value per successor entry
    of ``ch``) on the successors of choice row ``rows[s]``."""
    k, entries = _entries(ch.ptr, rows)
    return Chain(np.concatenate(([0], np.cumsum(k))), ch.succ[entries],
                 data[entries])


def _dot(ch: ChoiceRows, data: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Every choice row's sum of ``data`` times ``v`` over its successors."""
    return np.add.reduceat(data * v[ch.succ], ch.ptr[:-1])


def _induced(ch: ChoiceRows, rows: np.ndarray, scale: float | np.ndarray,
             extra: float = 0.0) -> Chain:
    """The chain that ``rows`` induce, with no self-loop entry: row s holds
    rate / scale[s] on the other states and (extra + out) / scale[s] on D,
    out its rate of leaving.  scale = cap gives the balance equations of
    the chain uniformized at cap, scale = exit the jump chain, and scale =
    alpha + exit with extra = alpha the discounted system."""
    lf = ch.loop_free
    P = _gather(lf, rows, lf.rate)
    scale = np.full(len(rows), scale)
    return P._replace(data=P.data / scale.repeat(P.ptr[1:] - P.ptr[:-1]),
                      diag=(extra + lf.exit[rows]) / scale)


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
    value for all states or one per state.  Only the states whose top score
    clears that bar are scanned, in plain Python floats: each one's scores
    are one slice of ``q``, and their bounds, incumbents and tolerances one
    list each."""
    best = q[rows]
    new = rows.copy()
    top = np.maximum.reduceat(q, ch.start[:-1])
    cand = np.flatnonzero(top > best + tol)
    if not len(cand):   # every final round: skip the set-up below
        return new
    margins = (tol[cand].tolist() if isinstance(tol, np.ndarray)
               else [float(tol)] * len(cand))
    picks = []
    for lo, hi, b, margin, pick in zip(
            ch.start[cand].tolist(), ch.start[cand + 1].tolist(),
            best[cand].tolist(), margins, rows[cand].tolist()):
        for i, x in enumerate(q[lo:hi].tolist(), lo):
            if x > b + margin:
                pick, b = i, x
        picks.append(pick)
    new[cand] = picks
    return new


def _bsccs(P: Chain) -> Tuple[np.ndarray, np.ndarray]:
    """(members, sizes): the states of the bottom SCCs of a chain, class
    after class in order of their SCC id, each class sorted, and the number
    of states of each class."""
    n = len(P.ptr) - 1
    graph = csr_array((P.data, P.col.astype(np.int32), P.ptr.astype(np.int32)),
                      shape=(n, n))
    ncomp, comp = connected_components(graph, directed=True,
                                       connection="strong")
    tail = np.repeat(comp, np.diff(P.ptr))
    leaves = np.ones(ncomp, dtype=bool)
    leaves[tail[tail != comp[P.col]]] = False
    members = np.flatnonzero(leaves[comp])
    members = members[np.argsort(comp[members], kind="stable")]
    sizes = np.bincount(comp[members])
    return members, sizes[sizes > 0]


def _factor(P: Chain, t: np.ndarray, f: np.ndarray,
            classes: Optional[np.ndarray] = None
            ) -> Tuple[Callable[[np.ndarray], np.ndarray],
                       Callable[[np.ndarray], np.ndarray]]:
    """Factor A = D[t, t] - P[t, t] over the states ``t`` once (D as in
    ``Chain``) and return ``(solve, couple)``.  If given, ``classes`` holds
    the sizes of consecutive classes that make up ``t``, and the column of
    each class's first state is pinned: it is replaced by the indicator of
    that class, so with one class the first column is all ones.
    ``solve(b)`` is A^-1 b and ``couple(x)`` is P[t, f] x for x given on
    the states ``f``.

    This is the one place that factors a matrix.  A is assembled once, as
    (row, column, value) triplets with no (row, column) twice: P has no
    self-loop entry and no column twice in a row, and a pinned column's
    entries are dropped before its ones go in.  With at most ``_DENSE_MAX``
    unknowns they are scattered into a dense k x k matrix for LAPACK's
    getrf and getrs, called directly to skip the wrapper cost that
    dominates on small chains; otherwise they are sorted by column, then
    row, into a canonical CSC for SuperLU (``splu``, default COLAMD
    ordering), which skips scipy's COO conversion.  A singular A raises
    ``np.linalg.LinAlgError`` on both.
    """
    n, k = len(P.ptr) - 1, len(t)
    counts, entries = _entries(P.ptr, t)
    diag = np.arange(k)
    i, j, p = diag.repeat(counts), P.col[entries], P.data[entries]
    d = np.ones(k) if P.diag is None else P.diag[t]
    pos = np.zeros(n, dtype=np.int64)
    pos[t] = diag
    pos[f] = np.arange(len(f))
    into = _mask(n, t)[j]
    rows = np.concatenate((i[into], diag))
    cols = np.concatenate((pos[j[into]], diag))
    vals = np.concatenate((-p[into], d))
    if classes is not None:
        first = classes.cumsum() - classes
        keep = ~_mask(k, first)[cols]
        rows = np.concatenate((rows[keep], diag))
        cols = np.concatenate((cols[keep], first.repeat(classes)))
        vals = np.concatenate((vals[keep], np.ones(k)))
    out = ~into
    fi, fj, fp = i[out], pos[j[out]], p[out]

    def couple(x: np.ndarray) -> np.ndarray:
        return np.bincount(fi, weights=fp * x[fj], minlength=k)

    if k <= _DENSE_MAX:
        A = np.zeros((k, k))
        A[rows, cols] = vals
        lu, piv, info = dgetrf(A)
        if info > 0:
            raise np.linalg.LinAlgError("Singular matrix")
        return (lambda b: dgetrs(lu, piv, b)[0]), couple
    order = np.lexsort((rows, cols))
    ptr = np.concatenate(([0], np.bincount(cols, minlength=k).cumsum()))
    try:
        lu = splu(csc_array((vals[order], rows[order], ptr), shape=(k, k)))
    except RuntimeError as exc:     # "Factor is exactly singular"
        raise np.linalg.LinAlgError(str(exc)) from None
    return lu.solve, couple


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
    base, _ = _discount_rows(m, spec, alpha)
    return _discounted(m.choices, m.choices.lookup(sigma), base, alpha)


def _discount_rows(m: Ctmdp, spec: RewardSpec,
                   alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """(base, discount): choice row i scores base[i] + discount[i] (P v)."""
    if not 0.0 < alpha < np.inf:
        raise CtmdpError(f"alpha must be positive and finite, got {alpha}")
    ch = m.choices
    # base = act + rho / (alpha + lam), discount = lam / (lam + alpha)
    base = _row_rewards(m, spec) + spec.state_rate[ch.state] / (alpha + ch.exit)
    return base, ch.exit / (ch.exit + alpha)


def _discounted(ch: ChoiceRows, rows: np.ndarray, base: np.ndarray,
                alpha: float) -> np.ndarray:
    """The v = base + R v / (alpha + exit) of the chain ``rows`` induce."""
    P = _induced(ch, rows, alpha + ch.exit[rows], alpha)
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
        v = _discounted(ch, rows, base, alpha)
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
    return _average(ch, rows, _step_rewards(m, spec, cap)[rows], cap)


def _average(ch: ChoiceRows, rows: np.ndarray, r: np.ndarray,
             cap: float) -> np.ndarray:
    """Per-state long-run reward per unit time of the chain that the choice
    rows ``rows`` induce, uniformized at ``cap``, with step reward ``r`` per
    state (``_step_rewards`` of the rows)."""
    P = _induced(ch, rows, cap)
    g, _, recurrent = _recurrent_gain_bias(P, r)
    return _absorption(P, recurrent)(g) * cap


def _recurrent_gain_bias(P: Chain, r: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, h, recurrent): on each bottom SCC of P, its gain g and bias h,
    g + (D - P) h = r with h summing to 0 over the class (D as in
    ``Chain``); 0 on the other states, which the mask ``recurrent`` leaves
    out.  The classes are closed, so one square solve gives all of them:
    h is pinned to 0 at each class's first member, whose column carries
    the class's g, [1, (D - P) e_2, ..., (D - P) e_k] [g; h_2; ...; h_k] = r
    per class, and h is then shifted to sum 0 per class."""
    n = len(P.ptr) - 1
    members, sizes = _bsccs(P)
    first = np.cumsum(sizes) - sizes
    solve, _ = _factor(P, members, members[:0], sizes)
    x = solve(r[members])
    g = np.zeros(n)
    g[members] = np.repeat(x[first], sizes)
    x[first] = 0.0
    h = np.zeros(n)
    h[members] = x - np.repeat(np.add.reduceat(x, first) / sizes, sizes)
    return g, h, _mask(n, members)


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

    rows = _first_rows(m).copy()
    paying = np.flatnonzero(r_step == r_step.max())
    states, first = np.unique(ch.state[paying], return_index=True)
    rows[states] = paying[first]
    _attractor(ch, np.ones(len(ch.state), dtype=bool),
               _mask(m.num_states, states), rows)

    for rounds in range(1, _MAX_ROUNDS + 1):
        P = _induced(ch, rows, cap)
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


def _in_unit_interval(values: np.ndarray) -> np.ndarray:
    """``values`` if all lie in [0, 1] up to 1e-9, each -0.0 made +0.0 in
    place (x + 0.0 is x for any other x); else, or on a NaN, a solve lost
    its accuracy, and this raises rather than clip."""
    if not -1e-9 <= values.min() <= values.max() <= 1.0 + 1e-9:
        raise np.linalg.LinAlgError(f"values from {values.min()} to "
                                    f"{values.max()} leave [0, 1]")
    values += 0.0
    return values


def _attractor(ch: ChoiceRows, allowed: np.ndarray, target: np.ndarray,
               rows: Optional[np.ndarray] = None) -> np.ndarray:
    """The existential attractor (Baier & Katoen 2008, Alg. 45-46): the mask
    of the states that reach the mask ``target`` over the rows in the mask
    ``allowed``, by breadth-first search over ``ch.preds``.  A state joins
    the level after the first that an allowed row of it enters, through its
    least such row, which goes into ``rows`` (a choice row per state) if
    given.  The search runs on plain lists: ``inside`` marks the states
    found, ``pick`` holds each joining state's least row so far (-1 before
    it is hit), and a level's new states, in the order they are first hit,
    are marked inside only once the level ends."""
    if target.all() or not target.any():
        return target.copy()
    pptr, prow, state = ch.preds
    ok = allowed.tolist()
    inside = target.tolist()
    pick = [-1] * len(inside)
    level = np.flatnonzero(target).tolist()
    while level:
        new = []
        for t in level:
            for r in prow[pptr[t]:pptr[t + 1]]:
                s = state[r]
                if inside[s] or not ok[r]:
                    continue
                least = pick[s]
                if least < 0:
                    new.append(s)
                    pick[s] = r
                elif r < least:
                    pick[s] = r
        for s in new:
            inside[s] = True
        level = new
    if rows is not None:
        joined = np.array(pick)
        hit = joined >= 0
        rows[hit] = joined[hit]
    return np.array(inside)


def _reach_probability(ch: ChoiceRows, rows: np.ndarray, target: np.ndarray,
                       P: Optional[Chain] = None) -> np.ndarray:
    """Probability of ever hitting the mask ``target`` in the chain that the
    choice rows ``rows`` induce: 0 outside their attractor, else solved on
    that chain, P if the caller has built it (``_induced`` of the rows at
    scale ``exit``)."""
    fixed = target | ~_attractor(ch, _mask(len(ch.state), rows), target)
    if fixed.all():
        return target.astype(float)
    if P is None:
        P = _induced(ch, rows, ch.exit[rows])
    return _in_unit_interval(_absorption(P, fixed)(target.astype(float)))


def psem_of(p: ProductCtmdp, schedule: Schedule) -> CheckResult:
    """Probability of visiting accepting states infinitely often under a
    fixed schedule."""
    ch = p.ctmdp.choices
    rows = ch.lookup(schedule_to_ids(p, schedule))
    values = _psem(ch, rows, _mask(p.num_states, list(p.accepting)))
    return CheckResult(values=values, schedule=schedule,
                       initial=p.ctmdp.initial)


def _psem(ch: ChoiceRows, rows: np.ndarray,
          accepting: np.ndarray) -> np.ndarray:
    """Per-state probability of visiting the mask ``accepting`` infinitely
    often in the chain that the choice rows ``rows`` induce: the chance of
    reaching one of its bottom classes that meets the mask."""
    P = _induced(ch, rows, ch.exit[rows])
    members, sizes = _bsccs(P)
    hit = np.logical_or.reduceat(accepting[members], np.cumsum(sizes) - sizes)
    good = _mask(len(rows), members[np.repeat(hit, sizes)])
    return _reach_probability(ch, rows, good, P)


def psem_optimal(p: ProductCtmdp) -> CheckResult:
    """Maximal probability of Buchi acceptance, with a witnessing schedule.

    Winning region: states of maximal end-components that contain an
    accepting state.  Inside it, an attractor toward the accepting states
    using only actions that keep the run in its component, one search for
    all components.  Outside it, policy iteration for maximal reachability
    of the region, started from the attractor toward it over all enabled
    actions: each round solves the induced chain exactly and switches a
    state's action only when that strictly raises its value, so values
    never drop and the final schedule attains them.  ``iterations`` counts
    the rounds.  Raises ``CtmdpError`` if a state has no enabled action.
    """
    m = p.ctmdp
    ch = m.choices
    rows = _first_rows(m).copy()
    kept, comp = ch.mec
    accepting = _mask(p.num_states, list(p.accepting))
    # the states of components that meet ``accepting``; component ids lie
    # below n, so the -1 of a state outside every one hits a spare entry
    target = (comp >= 0) & _mask(p.num_states + 1, comp[accepting])[comp]
    settled = target[ch.state]
    # each accepting region state starts on its first kept row
    start = target & accepting
    first = np.minimum.reduceat(
        np.where(kept, np.arange(len(kept)), len(kept)), ch.start[:-1])
    rows[start] = first[start]
    # a component's kept rows stay inside it, so one search over all of
    # them attracts and picks as one search per component would
    _attractor(ch, kept & settled, start, rows)
    _attractor(ch, np.ones(len(ch.state), dtype=bool), target, rows)

    for rounds in range(1, _MAX_ROUNDS + 1):
        v = _reach_probability(ch, rows, target)
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
    values = _in_unit_interval(average_value(p.ctmdp, spec, sigma))
    return CheckResult(values=values, schedule=schedule, initial=p.ctmdp.initial)


def esem_optimal(p: ProductCtmdp) -> CheckResult:
    """Maximal long-run fraction of time in accepting states, by multichain
    policy iteration; the fixed point is exact.  ``iterations`` counts the
    rounds."""
    spec = accepting_rate_spec(p.num_states, p.accepting)
    gains, sigma, rounds = _average_optimal(p.ctmdp, spec)
    return CheckResult(values=_in_unit_interval(gains),
                       schedule=schedule_from_ids(p, sigma),
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
    stable_from = next((i for i in range(len(schedules))
                        if len(set(schedules[i:])) == 1), None)
    return BlackwellReport(gammas=tuple(gammas),
                           schedules=tuple(schedules),
                           average_schedule=tuple(int(x) for x in sigma_avg),
                           stable_from=stable_from)
