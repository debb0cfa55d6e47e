"""Product of a labelled CTMDP with a Buchi automaton, and its sink-augmented
variant used to reduce satisfaction to average reward.

Automaton nondeterminism is materialized as distinct product actions: taking
``(a, q')`` from product state ``(s, q)`` moves the model with action ``a``
and the automaton to ``q' in delta(q, L(s))``.  Product states whose automaton
successor set is empty fall into a rejecting trap state.

``OnTheFlyProductEnv`` is the product table, of structure only: its rows
apply these rules, the trap rule included, and are the one place that
steps the automaton.  ``product_table(m, a)`` keeps one table per model and
automaton on the model, as the model keeps its ``ChoiceRows``;
``build_product``, the learners and ``ctsched simulate`` all take it from
there.  The table builds every reachable row when it is made, by one
depth-first walk from the initial pair, and numbers pairs in the order the
walk meets them; ``build_product`` reads the product off the rows with the
same numbering, so table id i is product state i, and hands the product's
edges to ``ChoiceRows.of_edges``, as ``augment`` does: the rows are the
product's store, its ``trans`` a view of them in (s, a) order, and their
exit rates are computed on first use.  The table keeps the model's choice
rows, not the model, so that a model and its tables are freed by reference
counting alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .automata import BuchiAutomaton, step
from .model import ActionNotEnabled, ChoiceRows, Ctmdp, CtmdpError
from .simulate import RngHandle, race

StatePair = Tuple[Optional[int], Optional[int]]   # (model state, automaton state)
ActionPair = Tuple[Optional[int], Optional[int]]  # (model action, automaton successor)

# The rejecting trap of the product and the zeta-sink of ``augment`` carry no
# model state; an augmented product can hold both, so they differ.
TRAP_PAIR: StatePair = (None, None)
TRAP_ACTION: ActionPair = (None, None)
SINK_PAIR: StatePair = (None, -1)
SINK_ACTION: ActionPair = (None, -1)


class ApMismatch(CtmdpError):
    pass


@dataclass(frozen=True)
class ProductCtmdp:
    """Materialized reachable product with accepting-state flags.

    ``pairs[i]`` is the (s, q) behind product state i; ``action_pairs[j]`` the
    (a, q') behind product action j.  ``model``/``automaton`` back-references
    are kept for schedule projection and may be None for synthetic products.
    """

    ctmdp: Ctmdp
    pairs: Tuple[StatePair, ...]
    action_pairs: Tuple[ActionPair, ...]
    accepting: FrozenSet[int]
    model: Optional[Ctmdp] = None
    automaton: Optional[BuchiAutomaton] = None

    @property
    def num_states(self) -> int:
        return self.ctmdp.num_states

    def state_index(self) -> Dict[StatePair, int]:
        return {pair: i for i, pair in enumerate(self.pairs)}

    def action_index(self) -> Dict[ActionPair, int]:
        return {pair: j for j, pair in enumerate(self.action_pairs)}


@dataclass(frozen=True)
class AugmentedProduct:
    product: ProductCtmdp      # the augmented model itself (sink included)
    sink: int                  # product state id of t


def _letters(m: Ctmdp, a: BuchiAutomaton) -> List[FrozenSet[int]]:
    """Each model state's label re-indexed into the automaton's AP space,
    with propositions matched by name."""
    if len(m.labels) != m.num_states:
        raise CtmdpError(f"model has {m.num_states} states but labels for "
                         f"{len(m.labels)}")
    model_index = {name: i for i, name in enumerate(m.ap)}
    for name in a.ap:
        if name not in model_index:
            raise ApMismatch(
                f"automaton proposition \"{name}\" not declared by the model "
                f"(model APs: {', '.join(m.ap) or 'none'})")
    ap_map = [(j, model_index[name]) for j, name in enumerate(a.ap)]
    return [frozenset(j for j, i in ap_map if i in m.labels[s])
            for s in range(m.num_states)]


def state_name(m: Ctmdp, pair: StatePair) -> str:
    """Display name of a product state over model ``m``."""
    if pair == TRAP_PAIR:
        return "(dead)"
    s, q = pair
    return f"({m.state_names[s]},q{q})"


def action_name(m: Ctmdp, pair: ActionPair) -> str:
    """Display name of a product action over model ``m``."""
    if pair == TRAP_ACTION:
        return "(stuck)"
    act, q2 = pair
    return f"{m.action_names[act]}>q{q2}"


class OnTheFlyProductEnv:
    """The model x automaton product as one table of its reachable rows,
    built whole when the table is made.

    A depth-first walk from the initial pair builds every reachable row and
    gives each pair met an id, in the order the walk meets it: table id i
    is product state i of ``build_product``.  ``walk`` lists the ids in the
    order the walk built their rows, the order in which ``build_product``
    numbers product actions.  Per id the table keeps the pair, its accepting
    flag, its action tuple and, per action slot k, the successor ids
    ``succ[i][k]`` and cumulative rates ``cum[i][k]`` that ``simulate.race``
    takes; no learning state, so learners may share the table.  Rows come
    from the model's choice rows; a pair whose automaton run dies loops in
    the trap.

    Of the model the table keeps the choice rows and the initial state; it
    keeps no reference to the model, which holds its tables
    (``product_table``), so that the two make no cycle.

    ``reset``, ``is_accepting``, ``actions`` and ``sample`` read the same
    rows keyed by pairs, and check the pairs and actions they are given: a
    pair the walk never reached raises CtmdpError.
    """

    def __init__(self, m: Ctmdp, a: BuchiAutomaton):
        self.a = a
        self.choices = m.choices
        self.initial: StatePair = (m.initial, a.initial)
        self.ids: Dict[StatePair, int] = {}
        self.pairs: List[StatePair] = []
        letters = _letters(m, a)
        rows = {}   # id -> (acts, succ, cum), in walk order
        stack = [self._intern(self.initial)]
        while stack:
            i = stack.pop()
            if i not in rows:
                rows[i] = row = self._row(i, letters)
                for targets in row[1]:
                    stack.extend(targets)
        self.walk: List[int] = list(rows)
        self.acts, self.succ, self.cum = zip(
            *(rows[i] for i in range(len(self.pairs))))
        self.accepting: List[bool] = [self.is_accepting(p) for p in self.pairs]

    def _intern(self, pair: StatePair) -> int:
        i = self.ids.get(pair)
        if i is None:
            i = self.ids[pair] = len(self.pairs)
            self.pairs.append(pair)
        return i

    def _row(self, i: int, letters: List[FrozenSet[int]]) -> tuple:
        """The row of id i as (acts, succ, cum), interning its successors."""
        s, q = self.pairs[i]
        choices = () if s is None else sorted(step(self.a, q, letters[s]))
        if not choices:
            # the trap, and pairs whose automaton run dies, loop in the trap
            return (TRAP_ACTION,), [(self._intern(TRAP_PAIR),)], [[1.0]]
        ch = self.choices
        lo, hi = ch.start[s:s + 2].tolist()
        ptr = ch.ptr[lo:hi + 1].tolist()
        acts, succ, cums = [], [], []
        for act, b, e in zip(ch.action[lo:hi].tolist(), ptr, ptr[1:]):
            targets = ch.succ[b:e].tolist()
            cum = list(accumulate(ch.rate[b:e].tolist()))
            for q2 in choices:
                acts.append((act, q2))
                succ.append(tuple(self._intern((t, q2)) for t in targets))
                cums.append(cum)
        return tuple(acts), succ, cums

    def _id(self, pair: StatePair) -> int:
        i = self.ids.get(pair)
        if i is None:
            raise CtmdpError(f"product pair {pair} is not reachable from "
                             f"the initial pair {self.initial}")
        return i

    def reset(self) -> StatePair:
        return self.initial

    def is_accepting(self, pair: StatePair) -> bool:
        return pair[1] in self.a.accepting

    def actions(self, pair: StatePair) -> Tuple[ActionPair, ...]:
        return self.acts[self._id(pair)]

    def sample(self, pair: StatePair, action: ActionPair,
               rng: RngHandle) -> Tuple[StatePair, float]:
        i = self._id(pair)
        try:
            k = self.acts[i].index(action)
        except ValueError:
            raise ActionNotEnabled(pair, action) from None
        t, dwell = race(self.succ[i][k], self.cum[i][k], rng)
        return self.pairs[t], dwell


def product_table(m: Ctmdp, a: BuchiAutomaton) -> OnTheFlyProductEnv:
    """The one product table of ``m`` and ``a``: made on first use and kept
    in ``m.product_tables``, so that every later call shares its rows.

    Tables are keyed by the automaton's ``id``, which costs no hash of its
    guards; the table holds the automaton, so the id names no other object
    while the entry lives."""
    tables = m.product_tables
    env = tables.get(id(a))
    if env is None:
        env = tables[id(a)] = OnTheFlyProductEnv(m, a)
    return env


def build_product(m: Ctmdp, a: BuchiAutomaton) -> ProductCtmdp:
    """Reachable synchronous product of model and automaton, read off
    ``product_table(m, a)``.

    Product state i is table id i, numbered in the order the table's
    depth-first walk from the initial pair meets it; product actions are
    numbered in the order their pairs are first met over the rows in walk
    order.
    """
    env = product_table(m, a)
    ch = m.choices
    # the trap's one loop reads a last model row with one edge, at rate 1
    ptr, trap = ch.ptr.tolist() + [len(ch.rate) + 1], len(ch.state)
    action_ids: Dict[ActionPair, int] = {}
    src, ids, succ, edge = [], [], [], []
    for i in env.walk:
        s = env.pairs[i][0]
        for act, targets in zip(env.acts[i], env.succ[i]):
            r = trap if act == TRAP_ACTION else ch.row[(s, act[0])]
            src += [i] * len(targets)
            ids += [action_ids.setdefault(act, len(action_ids))] * len(targets)
            succ += targets
            edge += range(ptr[r], ptr[r + 1])
    rows = ChoiceRows.of_edges(len(env.pairs), src, ids, succ,
                               np.append(ch.rate, 1.0)[edge])

    pairs = tuple(env.pairs)
    action_pairs = tuple(action_ids)
    ctmdp = Ctmdp(tuple(state_name(m, p) for p in pairs),
                  tuple(action_name(m, p) for p in action_pairs), 0, rows,
                  m.ap, tuple(m.labels[s] if s is not None else frozenset()
                              for s, _ in pairs))
    accepting = frozenset(i for i, acc in enumerate(env.accepting) if acc)
    return ProductCtmdp(ctmdp, pairs, action_pairs, accepting,
                        model=m, automaton=a)


def augment(p: ProductCtmdp, zeta: float) -> AugmentedProduct:
    """Sink-state construction: accepting exits split into zeta / (1 - zeta);
    the sink loops at rate 1."""
    if not (0.0 < zeta < 1.0):
        raise CtmdpError(f"zeta must lie in (0,1), got {zeta}")
    m, ch = p.ctmdp, p.ctmdp.choices
    sink = m.num_states
    # accepting rows keep zeta of each rate and send the rest of their exit
    # rate to the sink, the largest successor id, so the last of the row;
    # the sink loops
    acc = np.isin(ch.state, sorted(p.accepting))
    edge_row = ch.edge_row
    rows = ChoiceRows.of_edges(
        sink + 1, np.r_[ch.state[edge_row], ch.state[acc], sink],
        np.r_[ch.action[edge_row], ch.action[acc], len(p.action_pairs)],
        np.r_[ch.succ, np.full(np.count_nonzero(acc), sink), sink],
        np.r_[ch.rate * np.where(acc, zeta, 1.0)[edge_row],
              ch.exit[acc] * (1.0 - zeta), 1.0])
    ctmdp = Ctmdp(m.state_names + ("(sink)",), m.action_names + ("stay",),
                  m.initial, rows, m.ap, (*m.labels, frozenset()))
    product = ProductCtmdp(ctmdp,
                           p.pairs + (SINK_PAIR,),
                           p.action_pairs + (SINK_ACTION,),
                           frozenset({sink}),
                           model=p.model, automaton=p.automaton)
    return AugmentedProduct(product=product, sink=sink)


# ---------------------------------------------------------------------------
# Schedule representations

Schedule = Dict[StatePair, ActionPair]


def schedule_to_ids(p: ProductCtmdp, schedule: Schedule) -> np.ndarray:
    """Pair-keyed schedule -> per-product-state action ids.

    States absent from the schedule get their lowest-id enabled action; an
    entry whose action is not enabled at its state raises CtmdpError.
    """
    action_index = p.action_index()
    ch = p.ctmdp.choices
    start, action, enabled = ch.start.tolist(), ch.action.tolist(), ch.row
    out = []
    for i, pair in enumerate(p.pairs):
        choice = schedule.get(pair)
        if choice is not None:
            j = action_index.get(choice, -1)
        else:   # the action of the state's first row, if it has one
            j = action[start[i]] if start[i] < start[i + 1] else -1
        if (i, j) not in enabled:
            raise CtmdpError(f"schedule action {choice} is not enabled at "
                             f"product state {pair}")
        out.append(j)
    return np.array(out, dtype=np.int64)


def schedule_from_ids(p: ProductCtmdp, sigma: np.ndarray) -> Schedule:
    acts = p.action_pairs
    return {pair: acts[j]
            for pair, j in zip(p.pairs, sigma.tolist(), strict=True)
            if pair != TRAP_PAIR}


def project_schedule(p: ProductCtmdp, schedule: Schedule) -> Dict[Tuple[int, int], int]:
    """Induced finite-memory schedule on the base model: (s, q) -> model action."""
    out = {}
    for (s, q), (act, _) in schedule.items():
        if s is not None and act is not None:
            out[(s, q)] = act
    return out
