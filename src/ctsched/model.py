"""Core CTMDP structures: rates, embedded chains, uniformization, end-components.

States and actions are dense integer ids; names live in side tables.  All
transition data is stored per (state, action) pair as a pair of numpy arrays
(successor ids, rates), which keeps the value-iteration and Q-table hot paths
id-based and allocation-free.

The embedded jump chain has no type of its own: ``embed`` returns a Ctmdp
whose rates are the jump probabilities, so every exit rate is 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
    _enabled: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels",
                               tuple(frozenset() for _ in self.state_names))
        by_state: List[List[int]] = [[] for _ in self.state_names]
        for (s, a) in self.trans:
            by_state[s].append(a)
        object.__setattr__(self, "_enabled",
                           tuple(tuple(sorted(acts)) for acts in by_state))

    @property
    def num_states(self) -> int:
        return len(self.state_names)

    @property
    def num_actions(self) -> int:
        return len(self.action_names)

    def enabled(self, s: int) -> Tuple[int, ...]:
        return self._enabled[s]

    def successors(self, s: int, a: int) -> Tuple[np.ndarray, np.ndarray]:
        try:
            return self.trans[(s, a)]
        except KeyError:
            raise ActionNotEnabled(s, a) from None

    @property
    def max_exit_rate(self) -> float:
        return max(float(rates.sum()) for (_, rates) in self.trans.values())

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

    def component_of(self) -> Dict[int, int]:
        """State id -> index of the component containing it."""
        out: Dict[int, int] = {}
        for i, mec in enumerate(self.components):
            for s in mec.states:
                out[s] = i
        return out


def exit_rate(m: Ctmdp, s: int, a: int) -> float:
    succ, rates = m.successors(s, a)
    return float(rates.sum())


def embed(m: Ctmdp) -> Ctmdp:
    """Embedded jump chain as a Ctmdp of exit rate 1: the rates of (s, a)
    are the jump probabilities R(s,a,.) / exit_rate(s,a)."""
    probs: TransitionTable = {}
    for (s, a), (succ, rates) in m.trans.items():
        lam = rates.sum()
        probs[(s, a)] = (succ, rates / lam)
    return Ctmdp(m.state_names, m.action_names, m.initial, probs, m.ap, m.labels)


def uniformize(m: Ctmdp, cap: Optional[float] = None) -> Ctmdp:
    """Rescale to a common exit rate ``cap`` by adding self-loop mass.

    ``cap`` defaults to the maximal exit rate, the tightest legal choice.
    """
    top = m.max_exit_rate
    if cap is None:
        cap = top
    if cap < top - ROW_SUM_TOL * max(1.0, top):
        raise CtmdpError(f"uniformization constant {cap} below max exit rate {top}")
    trans: TransitionTable = {}
    for (s, a), (succ, rates) in m.trans.items():
        lam = rates.sum()
        extra = cap - lam
        if extra <= 0:
            trans[(s, a)] = (succ.copy(), rates.copy())
            continue
        idx = np.searchsorted(succ, s)
        if idx < len(succ) and succ[idx] == s:
            new_rates = rates.copy()
            new_rates[idx] += extra
            trans[(s, a)] = (succ.copy(), new_rates)
        else:
            trans[(s, a)] = (np.insert(succ, idx, s),
                             np.insert(rates, idx, extra))
    return Ctmdp(m.state_names, m.action_names, m.initial, trans, m.ap, m.labels)


def validate(m: Ctmdp) -> List[str]:
    """Invariant check; returns human-readable violations (empty means valid)."""
    out: List[str] = []
    n = m.num_states
    for s in range(n):
        if not m.enabled(s):
            out.append(f"state {m.state_names[s]}: no enabled action")
    for (s, a), (succ, rates) in m.trans.items():
        name = f"({m.state_names[s]}, {m.action_names[a]})"
        if len(succ) == 0 or rates.sum() <= 0:
            out.append(f"{name}: zero exit rate")
        if np.any(rates < 0):
            out.append(f"{name}: negative rate")
        if not np.all(np.isfinite(rates)):
            out.append(f"{name}: non-finite rate")
        if np.any(succ < 0) or np.any(succ >= n):
            out.append(f"{name}: successor out of range")
    for s, lab in enumerate(m.labels):
        for i in lab:
            if i < 0 or i >= len(m.ap):
                out.append(f"state {m.state_names[s]}: label index {i} out of range")
    if not (0 <= m.initial < n):
        out.append("initial state out of range")
    return out


def mec_decompose(m: Ctmdp, accepting: Set[int] = frozenset()) -> MecSet:
    """Maximal end-components via iterative SCC pruning.

    Only the support of the transitions matters, so ``m`` may be a model or
    its ``embed``.  A component is flagged accepting iff it intersects
    ``accepting``.
    """
    n = m.num_states
    retained: Dict[int, Set[int]] = {s: set(m.enabled(s)) for s in range(n)}
    alive = set(range(n))
    while True:
        rows, cols = [], []
        nodes = sorted(alive)
        index = {s: i for i, s in enumerate(nodes)}
        for s in nodes:
            for a in retained[s]:
                succ, _ = m.successors(s, a)
                for t in succ:
                    if int(t) in alive:
                        rows.append(index[s])
                        cols.append(index[int(t)])
        k = len(nodes)
        if k == 0:
            break
        graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(k, k))
        _, comp = connected_components(graph, directed=True, connection="strong")
        changed = False
        for s in nodes:
            keep = set()
            for a in retained[s]:
                succ, _ = m.successors(s, a)
                if all(int(t) in alive and comp[index[int(t)]] == comp[index[s]]
                       for t in succ):
                    keep.add(a)
            if keep != retained[s]:
                retained[s] = keep
                changed = True
        dead = {s for s in nodes if not retained[s]}
        if dead:
            alive -= dead
            changed = True
        if not changed:
            break

    # nothing was pruned in the last pass, so its SCCs are the components
    comps: Dict[int, List[int]] = {}
    for i, s in enumerate(nodes):
        comps.setdefault(int(comp[i]), []).append(s)

    mecs = []
    for members in comps.values():
        mecs.append(Mec(states=frozenset(members),
                        actions={s: tuple(sorted(retained[s])) for s in members},
                        accepting=bool(set(members) & set(accepting))))
    mecs.sort(key=lambda c: min(c.states))
    return MecSet(tuple(mecs))
