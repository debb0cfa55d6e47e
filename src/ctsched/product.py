"""Product of a labelled CTMDP with a Buchi automaton, and its sink-augmented
variant used to reduce satisfaction to average reward.

Automaton nondeterminism is materialized as distinct product actions: taking
``(a, q')`` from product state ``(s, q)`` moves the model with action ``a``
and the automaton to ``q' in delta(q, L(s))``.  Product states whose automaton
successor set is empty fall into a rejecting trap state.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .automata import BuchiAutomaton, step
from .model import Ctmdp, CtmdpError

StatePair = Tuple[Optional[int], Optional[int]]   # (model state, automaton state)
ActionPair = Tuple[Optional[int], Optional[int]]  # (model action, automaton successor)

# The rejecting trap of ``build_product`` and the zeta-sink of ``augment``
# carry no model state; an augmented product can hold both, so they differ.
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
    base: ProductCtmdp
    zeta: float
    sink: int                  # product state id of t


def _ap_map(model: Ctmdp, automaton: BuchiAutomaton) -> Dict[int, int]:
    """Automaton AP index -> model AP index, matched by name."""
    model_index = {name: i for i, name in enumerate(model.ap)}
    mapping = {}
    for j, name in enumerate(automaton.ap):
        if name not in model_index:
            raise ApMismatch(
                f"automaton proposition \"{name}\" not declared by the model "
                f"(model APs: {', '.join(model.ap) or 'none'})")
        mapping[j] = model_index[name]
    return mapping


def automaton_letter(model: Ctmdp, automaton: BuchiAutomaton, s: int,
                     ap_map: Optional[Dict[int, int]] = None) -> FrozenSet[int]:
    """Model-state label re-indexed into the automaton's AP space."""
    if ap_map is None:
        ap_map = _ap_map(model, automaton)
    label = model.labels[s]
    return frozenset(j for j, i in ap_map.items() if i in label)


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


def build_product(m: Ctmdp, a: BuchiAutomaton) -> ProductCtmdp:
    """Reachable synchronous product of model and automaton."""
    ap_map = _ap_map(m, a)
    letters = [automaton_letter(m, a, s, ap_map) for s in range(m.num_states)]
    succ_cache = [[step(a, q, letters[s]) for q in range(a.num_states)]
                  for s in range(m.num_states)]

    pair_ids: Dict[StatePair, int] = {}
    pairs: List[StatePair] = []
    action_ids: Dict[ActionPair, int] = {}
    transitions: List[Tuple[int, int, int, float]] = []
    need_trap = False

    def intern_state(pair: StatePair) -> int:
        if pair not in pair_ids:
            pair_ids[pair] = len(pairs)
            pairs.append(pair)
        return pair_ids[pair]

    def intern_action(pair: ActionPair) -> int:
        if pair not in action_ids:
            action_ids[pair] = len(action_ids)
        return action_ids[pair]

    start = intern_state((m.initial, a.initial))
    frontier = [start]
    explored = set()
    while frontier:
        i = frontier.pop()
        if i in explored:
            continue
        explored.add(i)
        s, q = pairs[i]
        if s is None:
            continue
        choices = sorted(succ_cache[s][q])
        if not choices:
            need_trap = True
            trap = intern_state(TRAP_PAIR)
            transitions.append((i, intern_action(TRAP_ACTION), trap, 1.0))
            if trap not in explored:
                frontier.append(trap)
            continue
        for act in m.enabled(s):
            succ, rates = m.successors(s, act)
            for q2 in choices:
                j = intern_action((act, q2))
                for t, rate in zip(succ, rates):
                    k = intern_state((int(t), q2))
                    transitions.append((i, j, k, float(rate)))
                    if k not in explored:
                        frontier.append(k)

    if need_trap:
        trap = pair_ids[TRAP_PAIR]
        transitions.append((trap, intern_action(TRAP_ACTION), trap, 1.0))

    action_pairs = tuple(sorted(action_ids, key=action_ids.get))
    ctmdp = Ctmdp.from_transitions(
        tuple(state_name(m, p) for p in pairs),
        tuple(action_name(m, p) for p in action_pairs),
        0, transitions,
        ap=m.ap,
        labels=[m.labels[p[0]] if p[0] is not None else frozenset()
                for p in pairs])
    accepting = frozenset(i for i, (s, q) in enumerate(pairs)
                          if q is not None and q in a.accepting)
    return ProductCtmdp(ctmdp, tuple(pairs), action_pairs, accepting,
                        model=m, automaton=a)


def augment(p: ProductCtmdp, zeta: float, sink_rate: float = 1.0) -> AugmentedProduct:
    """Sink-state construction: accepting exits split into zeta / (1 - zeta)."""
    if not (0.0 < zeta < 1.0):
        raise CtmdpError(f"zeta must lie in (0,1), got {zeta}")
    if sink_rate <= 0:
        raise CtmdpError(f"sink rate must be positive, got {sink_rate}")
    m = p.ctmdp
    sink = m.num_states
    sink_action = len(p.action_pairs)
    transitions: List[Tuple[int, int, int, float]] = []
    for (s, a), (succ, rates) in m.trans.items():
        if s in p.accepting:
            lam = float(rates.sum())
            for t, rate in zip(succ, rates):
                transitions.append((s, a, int(t), float(rate) * zeta))
            transitions.append((s, a, sink, lam * (1.0 - zeta)))
        else:
            for t, rate in zip(succ, rates):
                transitions.append((s, a, int(t), float(rate)))
    transitions.append((sink, sink_action, sink, sink_rate))

    ctmdp = Ctmdp.from_transitions(
        m.state_names + ("(sink)",),
        tuple(f"{name}" for name in m.action_names) + ("stay",),
        m.initial, transitions,
        ap=m.ap, labels=list(m.labels) + [frozenset()])
    product = ProductCtmdp(ctmdp,
                           p.pairs + (SINK_PAIR,),
                           p.action_pairs + (SINK_ACTION,),
                           frozenset({sink}),
                           model=p.model, automaton=p.automaton)
    return AugmentedProduct(product=product, base=p, zeta=zeta, sink=sink)


# ---------------------------------------------------------------------------
# Schedule representations

Schedule = Dict[StatePair, ActionPair]


def schedule_to_ids(p: ProductCtmdp, schedule: Schedule) -> np.ndarray:
    """Pair-keyed schedule -> per-product-state action ids.

    States absent from the schedule get their lowest-id enabled action; an
    entry whose action is not enabled at its state raises CtmdpError.
    """
    action_index = p.action_index()
    out = np.zeros(p.num_states, dtype=np.int64)
    for i, pair in enumerate(p.pairs):
        choice = schedule.get(pair)
        out[i] = (p.ctmdp.enabled(i)[0] if choice is None
                  else action_index.get(choice, -1))
        if (i, out[i]) not in p.ctmdp.trans:
            raise CtmdpError(f"schedule action {choice} is not enabled at "
                             f"product state {pair}")
    return out


def schedule_from_ids(p: ProductCtmdp, sigma: np.ndarray) -> Schedule:
    return {pair: p.action_pairs[int(sigma[i])]
            for i, pair in enumerate(p.pairs) if pair != TRAP_PAIR}


def project_schedule(p: ProductCtmdp, schedule: Schedule) -> Dict[Tuple[int, int], int]:
    """Induced finite-memory schedule on the base model: (s, q) -> model action."""
    out = {}
    for (s, q), (act, _) in schedule.items():
        if s is not None and act is not None:
            out[(s, q)] = act
    return out
