"""Core CTMDP structures: rates, embedded chains, uniformization, end-components.

States and actions are dense integer ids; names live in side tables.  A
model's one store is its state-major ``ChoiceRows``, built once from edge
arrays by ``ChoiceRows.of_edges``; ``Ctmdp.trans`` is a read-only view of
the rows in (s, a) order, and a mapping given in its place goes through
the same builder on first use.  The rows compute their exit rates, a reverse
(predecessor) index for the checker's backward searches and the maximal
end-components, as masks on the rows, on first use, once per model.  A
model also keeps its products, one per automaton (``build_product``): each
holds its product as a model of the same kind, built by one walk.

The embedded jump chain has no type of its own: ``embed`` returns a Ctmdp
whose rates are the jump probabilities, so every exit rate is 1.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

ROW_SUM_TOL = 1e-12

TransitionTable = Mapping[Tuple[int, int], Tuple[np.ndarray, np.ndarray]]


class CtmdpError(Exception):
    """Structural problem with a model."""


class ActionNotEnabled(CtmdpError):
    def __init__(self, state: int, action: int):
        super().__init__(f"action {action} not enabled in state {state}")
        self.state = state
        self.action = action


@dataclass(frozen=True)
class ChoiceRows(Mapping):
    """State-major index of the enabled (state, action) pairs of a model:
    row i plays ``action[i]`` in ``state[i]``, at exit rate ``exit[i]``; the
    rows of state s are ``start[s]:start[s + 1]`` in increasing action id,
    and ``row`` maps (s, a) to its row.  Row i's successors are
    ``succ[ptr[i]:ptr[i + 1]]`` (CSR layout), each at most once in a valid
    model, entered at ``rate`` or with jump probability ``prob``.  The
    reverse index ``preds`` lists, for each state, the rows that have it
    among their successors.  As a mapping, in row order, they take (s, a)
    to its row's (successors, rates), views of ``succ`` and ``rate``;
    ``values`` and ``items`` are lists, built in one pass over the rows,
    which never change."""

    start: np.ndarray
    state: np.ndarray
    action: np.ndarray
    ptr: np.ndarray
    succ: np.ndarray
    rate: np.ndarray

    @staticmethod
    def of_edges(num_states: int, s: np.ndarray, a: np.ndarray,
                 t: np.ndarray, rate: np.ndarray) -> "ChoiceRows":
        """The rows of the edges (s[i], a[i]) -> t[i] at ``rate[i]``, after
        one stable sort on (s, a, t): rates of 0 are dropped, a negative
        one raises, and the rates of one (s, a, t) add up left to right."""
        s, a, t = (np.asarray(x, dtype=np.int64) for x in (s, a, t))
        rate = np.asarray(rate, dtype=np.float64)
        if (rate < 0).any():
            i = np.argmax(rate < 0)
            raise CtmdpError(f"negative rate on ({s[i]},{a[i]},{t[i]})")
        order = np.lexsort((t, a, s))
        order = order[rate[order] != 0]
        s, a, t, rate = s[order], a[order], t[order], rate[order]
        # a row starts where (s, a) changes, an edge where (s, a, t) does
        row = np.ones(len(s), dtype=bool)
        row[1:] = (s[1:] != s[:-1]) | (a[1:] != a[:-1])
        first = row.copy()
        first[1:] |= t[1:] != t[:-1]
        # adds left to right from 0.0; gives int64 on no edges
        total = np.bincount(np.cumsum(first) - 1, weights=rate).astype(float)
        first = np.flatnonzero(first)
        ptr = np.flatnonzero(np.concatenate((row[first], [True])))
        state = s[first[ptr[:-1]]]
        return ChoiceRows(np.searchsorted(state, np.arange(num_states + 1)),
                          state, a[first[ptr[:-1]]], ptr, t[first], total)

    def __getitem__(self, key: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
        i = self.row[key]
        lo, hi = self.ptr[i], self.ptr[i + 1]
        return self.succ[lo:hi], self.rate[lo:hi]

    def __iter__(self):
        return iter(self.row)

    def __len__(self) -> int:
        return len(self.state)

    def values(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        ptr, succ, rate = self.ptr.tolist(), self.succ, self.rate
        return [(succ[lo:hi], rate[lo:hi]) for lo, hi in zip(ptr, ptr[1:])]

    def items(self) -> List[Tuple[Tuple[int, int],
                                  Tuple[np.ndarray, np.ndarray]]]:
        keys = zip(self.state.tolist(), self.action.tolist())
        return list(zip(keys, self.values()))

    @cached_property
    def exit(self) -> np.ndarray:
        """Each row's exit rate, the sum of its rates; built on first use.
        Rows of one length summed along a contiguous axis add up in the
        order rates.sum() does, so each probability is rates / rates.sum()."""
        counts = np.diff(self.ptr)
        out = np.zeros(len(counts))
        for k in np.unique(counts):
            same = np.flatnonzero(counts == k)
            entries = self.ptr[same, None] + np.arange(k)
            out[same] = self.rate[entries].sum(axis=1)
        return out

    @property
    def edge_row(self) -> np.ndarray:
        """The row of each successor entry."""
        return np.repeat(np.arange(len(self.state)), np.diff(self.ptr))

    @cached_property
    def row(self) -> Dict[Tuple[int, int], int]:
        """The row of each (state, action) pair; built on first use."""
        keys = zip(self.state.tolist(), self.action.tolist())
        return dict(zip(keys, range(len(self.state))))

    @cached_property
    def loop_free(self) -> "ChoiceRows":
        """These rows without their self-loop entries, so that ``exit`` is
        each row's rate of leaving its state, summed without the self-loop
        rate that a subtraction from the full exit rate would cancel; built
        on first use."""
        keep = self.succ != np.repeat(self.state, np.diff(self.ptr))
        ptr = np.concatenate(([0], np.cumsum(keep)))[self.ptr]
        return replace(self, ptr=ptr, succ=self.succ[keep],
                       rate=self.rate[keep])

    @cached_property
    def prob(self) -> np.ndarray:
        """Jump probabilities ``rate / exit``; built on first use, so that
        ``validate`` checks the rates before anything divides by them."""
        return self.rate / np.repeat(self.exit, np.diff(self.ptr))

    @cached_property
    def preds(self) -> Tuple[List[int], List[int], List[int]]:
        """(pptr, prow, state), lists for a search in Python: the rows with
        state t among their successors are ``prow[pptr[t]:pptr[t + 1]]``,
        in increasing row order, and row r plays in ``state[r]``; built on
        first use."""
        by_succ = np.argsort(self.succ, kind="stable")
        pptr = np.searchsorted(self.succ[by_succ], np.arange(len(self.start)))
        return (pptr.tolist(), self.edge_row[by_succ].tolist(),
                self.state.tolist())

    @cached_property
    def mec(self) -> Tuple[np.ndarray, np.ndarray]:
        """(kept, comp): the mask of the rows that stay inside a maximal
        end-component, and each state's component id, -1 outside every one;
        built on first use, and read-only, as every later solve shares them.
        SCC pruning: each pass finds the SCCs of the kept rows' edges and
        keeps a row iff all its successors lie in the SCC of its state."""
        n = len(self.start) - 1
        edge_row = self.edge_row
        src = self.state[edge_row]
        kept = np.ones(len(self.state), dtype=bool)
        while True:
            live = kept[edge_row]
            # COO, so that two rows of one state entering one successor sum
            graph = csr_matrix((np.ones(int(live.sum())),
                                (src[live], self.succ[live])), shape=(n, n))
            _, comp = connected_components(graph, directed=True,
                                           connection="strong")
            # a state without kept rows has no out-edges, so it is an SCC
            # of its own and the rows into it go too
            pruned = kept.copy()
            pruned[edge_row[comp[self.succ] != comp[src]]] = False
            if np.array_equal(pruned, kept):
                comp[np.bincount(self.state[kept], minlength=n) == 0] = -1
                kept.flags.writeable = comp.flags.writeable = False
                return kept, comp
            kept = pruned

    def rows_at(self, actions: Iterable) -> np.ndarray:
        """The row of (s, ``actions[s]``) for each state s in turn, -1 where
        s does not enable that action: one C-level ``map`` over ``row``."""
        return np.array(list(map(self.row.get, enumerate(actions),
                                 repeat(-1))), dtype=np.int64)

    def lookup(self, sigma: np.ndarray) -> np.ndarray:
        """The row that the schedule ``sigma`` (an action id per state)
        plays in each state; raises if it picks a disabled action."""
        if len(sigma) != len(self.start) - 1:
            raise CtmdpError("schedule length does not match state count")
        sigma = np.asarray(sigma).tolist()
        rows = self.rows_at(sigma)
        bad = np.flatnonzero(rows < 0)
        if len(bad):
            s = int(bad[0])
            raise CtmdpError(
                f"schedule picks disabled action {sigma[s]} in state {s}")
        return rows


@dataclass(frozen=True)
class Ctmdp:
    """Finite labelled continuous-time MDP.

    ``trans[(s, a)]`` is a pair ``(succ, rates)`` of equal-length arrays with
    strictly positive rates; the pair is present exactly when ``a`` is enabled
    in ``s``; a built model's ``trans`` is its ``ChoiceRows``, and a mapping
    given in its place becomes rows on first use, by the one edge builder.
    ``labels[s]`` is the set of atomic-proposition indices that hold in ``s``
    (indices into ``ap``).
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
        """``trans`` if it is rows, else the rows of its entries' edges,
        built on first use by ``ChoiceRows.of_edges``."""
        if isinstance(self.trans, ChoiceRows):
            return self.trans
        keys = np.array(list(self.trans), dtype=np.int64).reshape(-1, 2)
        succ, rate = zip(*self.trans.values()) if len(keys) else ((), ())
        return ChoiceRows.of_edges(
            self.num_states, *keys.repeat([len(x) for x in succ], axis=0).T,
            np.concatenate((np.zeros(0, dtype=np.int64), *succ)),
            np.concatenate((np.zeros(0), *rate)))

    @cached_property
    def products(self) -> Dict[int, object]:
        """This model's products by automaton id, which
        ``product.build_product`` makes and fills; empty on first use."""
        return {}

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
            return self.choices[(s, a)]
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
        edges = list(transitions)
        s, a, t, rate = zip(*edges) if edges else ((),) * 4
        rows = ChoiceRows.of_edges(len(state_names), s, a, t, rate)
        lab = None if labels is None else tuple(frozenset(x) for x in labels)
        return Ctmdp(tuple(state_names), tuple(action_names), initial, rows,
                     tuple(ap), lab or ())


@dataclass(frozen=True)
class Mec:
    """One maximal end-component: its states, and whether it is accepting."""

    states: FrozenSet[int]
    accepting: bool


@dataclass(frozen=True)
class MecSet:
    components: Tuple[Mec, ...]


def embed(m: Ctmdp) -> Ctmdp:
    """Embedded jump chain as a Ctmdp of exit rate 1: the rates of (s, a)
    are the jump probabilities R(s,a,.) / E(s,a), E the row's exit rate."""
    return replace(m, trans=replace(m.choices, rate=m.choices.prob))


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
    ch = m.choices
    short = ch.exit < cap
    edge_row, loops = ch.edge_row, ch.state[short]
    return replace(m, trans=ChoiceRows.of_edges(
        m.num_states, np.append(ch.state[edge_row], loops),
        np.append(ch.action[edge_row], ch.action[short]),
        np.append(ch.succ, loops), np.append(ch.rate, cap - ch.exit[short])))


def _name(names: Sequence[str], i: int) -> str:
    return names[i] if 0 <= i < len(names) else str(i)


def validate(m: Ctmdp) -> List[str]:
    """Invariant check; returns human-readable violations (empty means valid)."""
    n = m.num_states
    ch = m.choices
    out = [f"state {m.state_names[s]}: no enabled action"
           for s in np.flatnonzero(np.diff(ch.start) == 0).tolist()]
    counts = np.diff(ch.ptr)
    edge_row = ch.edge_row

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
    """The maximal end-components of ``m`` (``ChoiceRows.mec``) as state
    sets, in order of least state; one is accepting iff it meets
    ``accepting``."""
    members: Dict[int, List[int]] = {}
    for s, c in enumerate(m.choices.mec[1].tolist()):
        if c >= 0:
            members.setdefault(c, []).append(s)
    mecs = (frozenset(states) for states in members.values())
    return MecSet(tuple(Mec(states, not states.isdisjoint(accepting))
                        for states in mecs))
