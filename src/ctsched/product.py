"""Product of a labelled CTMDP with a Buchi automaton, and its sink-augmented
variant used to reduce satisfaction to average reward.

Automaton nondeterminism is materialized as distinct product actions: taking
``(a, q')`` from product state ``(s, q)`` moves the model with action ``a``
and the automaton to ``q' in delta(q, L(s))``.  Product states whose automaton
successor set is empty fall into a rejecting trap state.

``OnTheFlyProductEnv`` is the one product table: its ``row`` applies these
rules, the trap rule included, and is the one place that steps the
automaton.  The learner builds rows as its runs reach them; ``build_product``
builds every reachable row and reads the materialized product off them.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .automata import BuchiAutomaton, step
from .model import ActionNotEnabled, Ctmdp, CtmdpError
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
    """The model x automaton product as one table, built pair by pair: the
    learner builds the rows its runs reach, and ``build_product`` builds
    every reachable row and materializes the product from them.

    ``intern`` gives each pair met an id; per id the table keeps the pair,
    its accepting flag and, once ``row`` has built it, its action tuple, per
    action slot k the successor ids ``succ[i][k]`` and cumulative rates
    ``cum[i][k]`` that ``simulate.race`` takes, and one list of Q-values and
    one of visit counts over its slots.  Row columns hold None until then,
    so only the reachable fragment is ever touched.  Rows come from the
    model's choice rows; a pair whose automaton run dies loops in the trap.

    ``reset``, ``is_accepting``, ``actions`` and ``sample`` read the same
    rows keyed by pairs, and check the pairs and actions they are given.
    """

    def __init__(self, m: Ctmdp, a: BuchiAutomaton):
        self.m = m
        self.a = a
        self._letters = _letters(m, a)
        self.ids: Dict[StatePair, int] = {}
        self.pairs: List[StatePair] = []
        self.accepting: List[bool] = []
        self.acts: List[Optional[Tuple[ActionPair, ...]]] = []
        self.succ: List[Optional[List[Tuple[int, ...]]]] = []
        self.cum: List[Optional[List[List[float]]]] = []
        self.q: List[Optional[List[float]]] = []
        self.visits: List[Optional[List[int]]] = []

    def intern(self, pair: StatePair) -> int:
        i = self.ids.get(pair)
        if i is None:
            i = self.ids[pair] = len(self.pairs)
            self.pairs.append(pair)
            self.accepting.append(self.is_accepting(pair))
            for col in (self.acts, self.succ, self.cum, self.q, self.visits):
                col.append(None)
        return i

    def row(self, i: int) -> List[float]:
        """Build the row of id i, interning its successors; returns q[i]."""
        s, q = self.pairs[i]
        choices = () if s is None else sorted(step(self.a, q, self._letters[s]))
        if not choices:
            # the trap, and pairs whose automaton run dies, loop in the trap
            acts, cums = (TRAP_ACTION,), [[1.0]]
            succ = [(self.intern(TRAP_PAIR),)]
        else:
            ch = self.m.choices
            lo, hi = ch.start[s:s + 2].tolist()
            ptr = ch.ptr[lo:hi + 1].tolist()
            acts, succ, cums = [], [], []
            for act, b, e in zip(ch.action[lo:hi].tolist(), ptr, ptr[1:]):
                targets = ch.succ[b:e].tolist()
                cum = list(accumulate(ch.rate[b:e].tolist()))
                for q2 in choices:
                    acts.append((act, q2))
                    succ.append(tuple(self.intern((t, q2)) for t in targets))
                    cums.append(cum)
            acts = tuple(acts)
        self.acts[i], self.succ[i], self.cum[i] = acts, succ, cums
        self.visits[i] = [0] * len(acts)
        q = self.q[i] = [0.0] * len(acts)
        return q

    def _built(self, pair: StatePair) -> int:
        """The id of ``pair`` with its row built."""
        i = self.ids.get(pair)
        if i is None:
            s, q = pair
            if pair != TRAP_PAIR and not (s in range(self.m.num_states)
                                          and q in range(self.a.num_states)):
                raise CtmdpError(
                    f"product pair {pair} out of range: the model has "
                    f"{self.m.num_states} states, the automaton "
                    f"{self.a.num_states}")
            i = self.intern(pair)
        if self.q[i] is None:
            self.row(i)
        return i

    def reset(self) -> StatePair:
        return (self.m.initial, self.a.initial)

    def is_accepting(self, pair: StatePair) -> bool:
        return pair[1] in self.a.accepting

    def actions(self, pair: StatePair) -> Tuple[ActionPair, ...]:
        return self.acts[self._built(pair)]

    def sample(self, pair: StatePair, action: ActionPair,
               rng: RngHandle) -> Tuple[StatePair, float]:
        i = self._built(pair)
        try:
            k = self.acts[i].index(action)
        except ValueError:
            raise ActionNotEnabled(pair, action) from None
        t, dwell = race(self.succ[i][k], self.cum[i][k], rng)
        return self.pairs[t], dwell


def build_product(m: Ctmdp, a: BuchiAutomaton) -> ProductCtmdp:
    """Reachable synchronous product of model and automaton.

    The rows of ``OnTheFlyProductEnv`` are built depth first from its initial
    pair, and product action ids number the action pairs in the order first
    met over the rows in build order.
    """
    env = OnTheFlyProductEnv(m, a)
    built: List[int] = []
    stack = [env.intern(env.reset())]
    while stack:
        i = stack.pop()
        if env.acts[i] is None:
            env.row(i)
            built.append(i)
            for targets in env.succ[i]:
                stack.extend(targets)

    ch = m.choices
    ptr, rate = ch.ptr.tolist(), ch.rate.tolist()
    action_ids: Dict[ActionPair, int] = {}
    transitions: List[Tuple[int, int, int, float]] = []
    for i in built:
        s = env.pairs[i][0]
        for act, targets, cum in zip(env.acts[i], env.succ[i], env.cum[i]):
            j = action_ids.setdefault(act, len(action_ids))
            if act == TRAP_ACTION:
                rates = cum     # one successor: its cumulative rate is its rate
            else:
                row = ch.row[(s, act[0])]
                rates = rate[ptr[row]:ptr[row + 1]]
            transitions.extend((i, j, t, r) for t, r in zip(targets, rates))

    pairs, action_pairs = tuple(env.pairs), tuple(action_ids)
    ctmdp = Ctmdp.from_transitions(
        tuple(state_name(m, p) for p in pairs),
        tuple(action_name(m, p) for p in action_pairs),
        0, transitions,
        ap=m.ap,
        labels=[m.labels[s] if s is not None else frozenset()
                for s, _ in pairs])
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
    # rate to the sink, in one edge after their last; the sink loops
    acc = np.isin(ch.state, sorted(p.accepting))
    counts = np.diff(ch.ptr)
    ends = ch.ptr[1:][acc]
    rate = ch.rate * np.repeat(np.where(acc, zeta, 1.0), counts)
    rate = np.insert(rate, ends, ch.exit[acc] * (1.0 - zeta)).tolist()
    succ = np.insert(ch.succ, ends, sink).tolist()
    edge_row = np.repeat(np.arange(len(counts)), counts + acc)
    transitions = list(zip(ch.state[edge_row].tolist(),
                           ch.action[edge_row].tolist(), succ, rate))
    transitions.append((sink, len(p.action_pairs), sink, 1.0))

    ctmdp = Ctmdp.from_transitions(
        m.state_names + ("(sink)",),
        m.action_names + ("stay",),
        m.initial, transitions,
        ap=m.ap, labels=list(m.labels) + [frozenset()])
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
    out = np.zeros(p.num_states, dtype=np.int64)
    for i, pair in enumerate(p.pairs):
        choice = schedule.get(pair)
        out[i] = (p.ctmdp.enabled(i)[0] if choice is None
                  else action_index.get(choice, -1))
        if (i, out[i]) not in p.ctmdp.choices.row:
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
