"""Core CTMDP structures: rates, embedded chains, uniformization, end-components.

States and actions are dense integer ids; names live in side tables.  A model
is given by (successor ids, rates) arrays per (state, action) pair, and
derives from them one state-major index of choice rows, ``ChoiceRows``, that
the checker and the end-component pruning read, with a reverse (predecessor)
index for the checker's backward searches.

The embedded jump chain has no type of its own: ``embed`` returns a Ctmdp
whose rates are the jump probabilities, so every exit rate is 1.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

ROW_SUM_TOL = 1e-12

TransitionTable = Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]]


class CtmdpError(Exception):
    """Structural problem with a model."""


class ActionNotEnabled(CtmdpError):
    def __init__(self, state: int, action: int):
        super().__init__(f"action {action} not enabled in state {state}")
        self.state = state
        self.action = action


def _row_sums(ptr: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """The sum of ``rate`` over each row of a CSR with row pointer ``ptr``.
    Rows of one length summed along a contiguous axis add up in the order
    rates.sum() does, so each probability is rates / rates.sum()."""
    counts = np.diff(ptr)
    out = np.zeros(len(counts))
    for k in np.unique(counts):
        same = np.flatnonzero(counts == k)
        out[same] = rate[ptr[same, None] + np.arange(k)].sum(axis=1)
    return out


@dataclass(frozen=True)
class ChoiceRows:
    """State-major index of the enabled (state, action) pairs of a model:
    row i plays ``action[i]`` in ``state[i]``, at exit rate ``exit[i]``; the
    rows of state s are ``start[s]:start[s + 1]`` in increasing action id,
    and ``row`` maps (s, a) to its row.  Row i's successors are
    ``succ[ptr[i]:ptr[i + 1]]`` (CSR layout), each at most once in a valid
    model, entered at ``rate`` or with jump probability ``prob``.  The
    reverse index ``preds`` lists, for each state, the rows that have it
    among their successors."""

    start: np.ndarray
    state: np.ndarray
    action: np.ndarray
    exit: np.ndarray
    ptr: np.ndarray
    succ: np.ndarray
    rate: np.ndarray
    row: Dict[Tuple[int, int], int]

    @staticmethod
    def of(trans: TransitionTable, num_states: int) -> "ChoiceRows":
        keys = sorted(trans)
        state = np.array([s for s, _ in keys], dtype=np.int64)
        succ = [np.zeros(0, dtype=np.int64)] + [trans[k][0] for k in keys]
        rates = [np.zeros(0)] + [trans[k][1] for k in keys]
        ptr = np.cumsum([len(x) for x in succ])
        rate = np.concatenate(rates)
        return ChoiceRows(
            start=np.searchsorted(state, np.arange(num_states + 1)),
            state=state, action=np.array([a for _, a in keys], dtype=np.int64),
            exit=_row_sums(ptr, rate), ptr=ptr, succ=np.concatenate(succ),
            rate=rate, row=dict(zip(keys, range(len(keys)))))

    @cached_property
    def loop_free(self) -> "ChoiceRows":
        """These rows without their self-loop entries, so that ``exit`` is
        each row's rate of leaving its state, summed without the self-loop
        rate that a subtraction from the full exit rate would cancel; built
        on first use."""
        keep = self.succ != np.repeat(self.state, np.diff(self.ptr))
        ptr = np.concatenate(([0], np.cumsum(keep)))[self.ptr]
        rate = self.rate[keep]
        return replace(self, exit=_row_sums(ptr, rate), ptr=ptr,
                       succ=self.succ[keep], rate=rate)

    @cached_property
    def prob(self) -> np.ndarray:
        """Jump probabilities ``rate / exit``; built on first use, so that
        ``validate`` checks the rates before anything divides by them."""
        return self.rate / np.repeat(self.exit, np.diff(self.ptr))

    @cached_property
    def preds(self) -> Tuple[np.ndarray, np.ndarray]:
        """(pptr, prow): the rows with state t among their successors are
        ``prow[pptr[t]:pptr[t + 1]]``, in increasing row order; built on
        first use."""
        by_succ = np.argsort(self.succ, kind="stable")
        edge_row = np.repeat(np.arange(len(self.state)), np.diff(self.ptr))
        pptr = np.searchsorted(self.succ[by_succ], np.arange(len(self.start)))
        return pptr, edge_row[by_succ]

    def lookup(self, sigma: np.ndarray) -> np.ndarray:
        """The row that the schedule ``sigma`` (an action id per state)
        plays in each state; raises if it picks a disabled action."""
        if len(sigma) != len(self.start) - 1:
            raise CtmdpError("schedule length does not match state count")
        keys = enumerate(np.asarray(sigma).tolist())
        try:
            return np.array([self.row[key] for key in keys], dtype=np.int64)
        except KeyError as exc:
            s, a = exc.args[0]
            raise CtmdpError(
                f"schedule picks disabled action {a} in state {s}") from None


@dataclass(frozen=True)
class Ctmdp:
    """Finite labelled continuous-time MDP.

    ``trans[(s, a)]`` is a pair ``(succ, rates)`` of equal-length arrays with
    strictly positive rates; the pair is present exactly when ``a`` is enabled
    in ``s``.  ``labels[s]`` is the set of atomic-proposition indices that hold
    in ``s`` (indices into ``ap``).
    """

    state_names: Tuple[str, ...]
    action_names: Tuple[str, ...]
    initial: int
    trans: TransitionTable
    ap: Tuple[str, ...] = ()
    labels: Tuple[FrozenSet[int], ...] = ()

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels",
                               tuple(frozenset() for _ in self.state_names))

    @cached_property
    def choices(self) -> ChoiceRows:
        """The row index of ``trans``, built on first use."""
        return ChoiceRows.of(self.trans, self.num_states)

    @property
    def num_states(self) -> int:
        return len(self.state_names)

    @property
    def num_actions(self) -> int:
        return len(self.action_names)

    def enabled(self, s: int) -> Tuple[int, ...]:
        lo, hi = self.choices.start[s:s + 2].tolist()
        return tuple(self.choices.action[lo:hi].tolist())

    def successors(self, s: int, a: int) -> Tuple[np.ndarray, np.ndarray]:
        try:
            return self.trans[(s, a)]
        except KeyError:
            raise ActionNotEnabled(s, a) from None

    @property
    def max_exit_rate(self) -> float:
        return float(self.choices.exit.max())

    @staticmethod
    def from_transitions(state_names: Sequence[str],
                         action_names: Sequence[str],
                         initial: int,
                         transitions: Iterable[Tuple[int, int, int, float]],
                         ap: Sequence[str] = (),
                         labels: Optional[Sequence[Iterable[int]]] = None) -> "Ctmdp":
        """Build a Ctmdp from (s, a, s', rate) tuples; duplicate edges add up."""
        acc: Dict[Tuple[int, int], Dict[int, float]] = {}
        for s, a, s2, rate in transitions:
            if rate < 0:
                raise CtmdpError(f"negative rate on ({s},{a},{s2})")
            if rate == 0:
                continue
            acc.setdefault((s, a), {}).setdefault(s2, 0.0)
            acc[(s, a)][s2] += float(rate)
        trans: TransitionTable = {}
        for key, row in acc.items():
            succ = np.array(sorted(row), dtype=np.int64)
            rates = np.array([row[t] for t in succ], dtype=np.float64)
            trans[key] = (succ, rates)
        lab = None if labels is None else tuple(frozenset(x) for x in labels)
        return Ctmdp(tuple(state_names), tuple(action_names), initial, trans,
                     tuple(ap), lab or ())


@dataclass(frozen=True)
class Mec:
    """One maximal end-component: states plus the retained action subsets."""

    states: FrozenSet[int]
    actions: Dict[int, Tuple[int, ...]]
    accepting: bool


@dataclass(frozen=True)
class MecSet:
    components: Tuple[Mec, ...]


def embed(m: Ctmdp) -> Ctmdp:
    """Embedded jump chain as a Ctmdp of exit rate 1: the rates of (s, a)
    are the jump probabilities R(s,a,.) / E(s,a), E the row's exit rate."""
    probs = {key: (succ, rates / rates.sum())
             for key, (succ, rates) in m.trans.items()}
    return Ctmdp(m.state_names, m.action_names, m.initial, probs, m.ap, m.labels)


def uniformize(m: Ctmdp, cap: Optional[float] = None) -> Ctmdp:
    """Rescale to a common exit rate ``cap`` by adding self-loop mass.

    ``cap`` defaults to the maximal exit rate, the tightest legal choice.
    """
    top = m.max_exit_rate
    if cap is None:
        cap = top
    if not np.isfinite(cap):
        raise CtmdpError(f"uniformization constant {cap} is not finite")
    if cap < top - ROW_SUM_TOL * max(1.0, top):
        raise CtmdpError(f"uniformization constant {cap} below max exit rate {top}")
    # the added self-loop mass sums with an existing self-loop
    loops = [(s, a, s, cap - float(rates.sum()))
             for (s, a), (_, rates) in m.trans.items() if rates.sum() < cap]
    return Ctmdp.from_transitions(
        m.state_names, m.action_names, m.initial,
        [(s, a, int(t), float(r)) for (s, a), (succ, rates) in m.trans.items()
         for t, r in zip(succ, rates)] + loops, m.ap, m.labels)


def _name(names: Sequence[str], i: int) -> str:
    return names[i] if 0 <= i < len(names) else str(i)


def validate(m: Ctmdp) -> List[str]:
    """Invariant check; returns human-readable violations (empty means valid)."""
    n = m.num_states
    ch = m.choices
    out = [f"state {m.state_names[s]}: no enabled action"
           for s in np.flatnonzero(np.diff(ch.start) == 0).tolist()]
    counts = np.diff(ch.ptr)
    edge_row = np.repeat(np.arange(len(counts)), counts)

    def rows_with(bad_edge: np.ndarray) -> np.ndarray:
        return np.bincount(edge_row[bad_edge], minlength=len(counts)) > 0

    # the checker gathers its chains from these rows as CSR, and scipy's
    # strong-component search does not terminate on a CSR that lists a
    # column twice in a row
    inside = (ch.succ >= 0) & (ch.succ < n)
    edge = np.sort(edge_row[inside] * n + ch.succ[inside])
    repeated = np.zeros(len(counts), dtype=bool)
    repeated[edge[1:][edge[1:] == edge[:-1]] // n] = True

    checks = {
        "state out of range": (ch.state < 0) | (ch.state >= n),
        "action out of range": (ch.action < 0) | (ch.action >= m.num_actions),
        "zero exit rate": (counts == 0) | (ch.exit <= 0),
        "negative rate": rows_with(ch.rate < 0),
        "non-finite rate": rows_with(~np.isfinite(ch.rate)),
        "successor out of range": rows_with((ch.succ < 0) | (ch.succ >= n)),
        "repeated successor": repeated,
    }
    bad = np.array(list(checks.values()))
    for i in np.flatnonzero(bad.any(axis=0)).tolist():
        name = (f"({_name(m.state_names, int(ch.state[i]))}, "
                f"{_name(m.action_names, int(ch.action[i]))})")
        out.extend(f"{name}: {what}"
                   for what, flag in zip(checks, bad[:, i]) if flag)
    if len(m.labels) != n:
        out.append(f"labels given for {len(m.labels)} states, not {n}")
    for s, lab in enumerate(m.labels):
        for i in lab:
            if i < 0 or i >= len(m.ap):
                out.append(f"state {_name(m.state_names, s)}: label index {i} out of range")
    if not (0 <= m.initial < n):
        out.append("initial state out of range")
    return out


def mec_decompose(m: Ctmdp, accepting: Set[int] = frozenset()) -> MecSet:
    """Maximal end-components by SCC pruning over the choice rows: each pass
    finds the SCCs of the kept rows' edges and keeps a row iff all its
    successors lie in its state's SCC.  Only the support of the transitions
    matters, so ``m`` may be a model or its ``embed``.  A component is
    accepting iff it meets ``accepting``."""
    n = m.num_states
    ch = m.choices
    succ = ch.succ
    edge_row = np.repeat(np.arange(len(ch.state)), np.diff(ch.ptr))
    src = ch.state[edge_row]
    keep = np.ones(len(ch.state), dtype=bool)
    while True:
        live = keep[edge_row]
        graph = csr_matrix((np.ones(int(live.sum())), (src[live], succ[live])),
                           shape=(n, n))
        _, comp = connected_components(graph, directed=True, connection="strong")
        # a state without kept rows has no out-edges, so it is an SCC of its
        # own and the rows into it go too
        pruned = keep.copy()
        pruned[edge_row[comp[succ] != comp[src]]] = False
        if np.array_equal(pruned, keep):
            break
        keep = pruned

    members: Dict[int, List[int]] = {}
    for s in np.unique(ch.state[keep]).tolist():
        members.setdefault(int(comp[s]), []).append(s)
    kept: Dict[int, List[int]] = {}
    for s, a in zip(ch.state[keep].tolist(), ch.action[keep].tolist()):
        kept.setdefault(s, []).append(a)
    mecs = [Mec(states=frozenset(states),
                actions={s: tuple(kept[s]) for s in states},
                accepting=bool(set(accepting).intersection(states)))
            for states in members.values()]
    mecs.sort(key=lambda c: min(c.states))
    return MecSet(tuple(mecs))
