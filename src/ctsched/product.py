"""Product of a labelled CTMDP with a Buchi automaton, and its sink-augmented
variant used to reduce satisfaction to average reward.

Automaton nondeterminism is materialized as distinct product actions: taking
``(a, q')`` from product state ``(s, q)`` moves the model with action ``a``
and the automaton to ``q' in delta(q, L(s))``.  Product states whose automaton
successor set is empty fall into a rejecting trap state.

``_walk`` is the one pass over the product and the one place that steps the
automaton.  ``build_product(m, a)`` keeps the product it makes in
``m.products``, one per automaton, so that the checker, both learners and
``ctsched simulate`` share it; the learners and ``ctsched simulate`` step on
its ids through the columns it derives from its rows on first use.
``OnTheFlyProductEnv`` is the same product keyed by pairs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
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
    (a, q') behind product action j.  ``automaton`` is the automaton whose id
    keys a built product on its model, and may be None for synthetic
    products; the product keeps no reference to the model, which holds it,
    so that the two make no cycle.

    The learner's columns are derived from the rows on first use: per state
    i, ``acts[i]`` lists its action pairs in (model action, automaton
    successor) order, and slot k races the successor ids ``succ[i][k]`` at
    the cumulative rates ``cum[i][k]`` in model state order, the order of
    the model's own rows (``ChoiceRows.of_edges``).  They hold no learning
    state, so learners may share them.
    """

    ctmdp: Ctmdp
    pairs: Tuple[StatePair, ...]
    action_pairs: Tuple[ActionPair, ...]
    accepting: FrozenSet[int]
    automaton: Optional[BuchiAutomaton] = None

    @property
    def num_states(self) -> int:
        return self.ctmdp.num_states

    def state_index(self) -> Dict[StatePair, int]:
        return {pair: i for i, pair in enumerate(self.pairs)}

    def action_index(self) -> Dict[ActionPair, int]:
        return {pair: j for j, pair in enumerate(self.action_pairs)}

    def _by_slot(self, column: np.ndarray, make) -> tuple:
        """Per id, per slot, ``make`` of the list of the slot's entries of
        ``column``, a value per entry of the product's rows: an id's slots
        are its rows ordered by the (model action, automaton successor) of
        their action pair, and a slot's entries are ordered by model state.
        The trap and the sink have no model coordinates, and order as -1."""
        ch = self.ctmdp.choices
        key = np.array([[-1 if x is None else x for x in p]
                        for p in self.action_pairs],
                       dtype=np.int64).reshape(-1, 2)[ch.action]
        rows = np.lexsort((key[:, 1], key[:, 0], ch.state))
        rank = np.empty_like(rows)
        rank[rows] = np.arange(len(rows))
        model_state = np.array([-1 if s is None else s for s, _ in self.pairs])
        flat = column[np.lexsort((model_state[ch.succ],
                                  rank[ch.edge_row]))].tolist()
        ptr = [0, *np.cumsum(np.diff(ch.ptr)[rows]).tolist()]
        slots = [make(flat[b:e]) for b, e in zip(ptr, ptr[1:])]
        start = ch.start.tolist()
        return tuple(tuple(slots[b:e]) for b, e in zip(start, start[1:]))

    @cached_property
    def acts(self) -> Tuple[Tuple[ActionPair, ...], ...]:
        # of_edges makes no row without entries
        ch, names = self.ctmdp.choices, self.action_pairs
        return self._by_slot(ch.action[ch.edge_row], lambda j: names[j[0]])

    @cached_property
    def succ(self) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
        return self._by_slot(self.ctmdp.choices.succ, tuple)

    @cached_property
    def cum(self) -> Tuple[Tuple[List[float], ...], ...]:
        return self._by_slot(self.ctmdp.choices.rate,
                             lambda rates: list(accumulate(rates)))


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


def _walk(m: Ctmdp, a: BuchiAutomaton) -> ProductCtmdp:
    """The model x automaton product, built whole by one depth-first walk.

    The walk from the initial pair gives each pair, and each product action
    (a, q'), an id in the order it first meets them: (a, q') pairs a model
    row of s with a successor q' of (q, L(s)), in row and then automaton
    state order; a pair whose automaton run dies loops in the trap.  The
    walk's edges go to ``ChoiceRows.of_edges``."""
    initial = (m.initial, a.initial)
    ids, action_ids = {initial: 0}, {}
    letters = _letters(m, a)
    successors = cache(lambda q, letter: sorted(step(a, q, letter)))
    ch = m.choices
    start, action, ptr, succ, rate = (x.tolist() for x in (
        ch.start, ch.action, ch.ptr, ch.succ, ch.rate))
    src, act, dst, rates = [], [], [], []
    built, stack = set(), [initial]
    while stack:
        pair = stack.pop()
        i = ids[pair]
        if i in built:
            continue
        built.add(i)
        s, q = pair
        q2s = () if s is None else successors(q, letters[s])
        if q2s:   # slots (action pair, successor pairs, rates)
            slots = [((action[r], q2),
                      [(t, q2) for t in succ[ptr[r]:ptr[r + 1]]],
                      rate[ptr[r]:ptr[r + 1]])
                     for r in range(start[s], start[s + 1]) for q2 in q2s]
        else:     # the trap, and pairs whose automaton run dies
            slots = [(TRAP_ACTION, [TRAP_PAIR], [1.0])]
        for act_pair, targets, row_rates in slots:
            n = len(targets)
            src += [i] * n
            act += [action_ids.setdefault(act_pair, len(action_ids))] * n
            dst += [ids.setdefault(t, len(ids)) for t in targets]
            rates += row_rates
            stack += targets
    pairs, action_pairs = tuple(ids), tuple(action_ids)
    ctmdp = Ctmdp(
        tuple(state_name(m, p) for p in pairs),
        tuple(action_name(m, p) for p in action_pairs), 0,
        ChoiceRows.of_edges(len(pairs), src, act, dst, rates), m.ap,
        tuple(m.labels[s] if s is not None else frozenset()
              for s, _ in pairs))
    return ProductCtmdp(ctmdp, pairs, action_pairs,
                        frozenset(i for i, (_, q) in enumerate(pairs)
                                  if q in a.accepting), a)


def build_product(m: Ctmdp, a: BuchiAutomaton) -> ProductCtmdp:
    """Reachable synchronous product of model and automaton: made by
    ``_walk`` on first use and kept in ``m.products``, so that every later
    call returns the same product.

    Products are keyed by the automaton's ``id``, which costs no hash of its
    guards; the product holds the automaton, so the id names no other object
    while the entry lives."""
    products = m.products
    p = products.get(id(a))
    if p is None:
        p = products[id(a)] = _walk(m, a)
    return p


class OnTheFlyProductEnv:
    """``build_product(m, a)`` keyed by pairs: ``reset``, ``is_accepting``,
    ``actions`` and ``sample`` read the product's columns at a pair's id, and
    a pair the walk never reached raises CtmdpError."""

    def __init__(self, m: Ctmdp, a: BuchiAutomaton):
        self.p = build_product(m, a)
        self.ids = self.p.state_index()

    def _id(self, pair: StatePair) -> int:
        i = self.ids.get(pair)
        if i is None:
            raise CtmdpError(f"product pair {pair} is not reachable from "
                             f"the initial pair {self.reset()}")
        return i

    def reset(self) -> StatePair:
        return self.p.pairs[self.p.ctmdp.initial]

    def is_accepting(self, pair: StatePair) -> bool:
        return self._id(pair) in self.p.accepting

    def actions(self, pair: StatePair) -> Tuple[ActionPair, ...]:
        return self.p.acts[self._id(pair)]

    def sample(self, pair: StatePair, action: ActionPair,
               rng: RngHandle) -> Tuple[StatePair, float]:
        i, p = self._id(pair), self.p
        try:
            k = p.acts[i].index(action)
        except ValueError:
            raise ActionNotEnabled(pair, action) from None
        t, dwell = race(p.succ[i][k], p.cum[i][k], rng)
        return p.pairs[t], dwell


def augment(p: ProductCtmdp, zeta: float) -> ProductCtmdp:
    """Sink-state construction: accepting exits split into zeta / (1 - zeta);
    the sink loops at rate 1.  The sink is the augmented product's last
    state, pair ``SINK_PAIR``, and its only accepting state."""
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
    return ProductCtmdp(ctmdp, p.pairs + (SINK_PAIR,),
                        p.action_pairs + (SINK_ACTION,), frozenset({sink}),
                        p.automaton)


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
