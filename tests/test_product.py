"""Model x automaton products, the sink augmentation and schedule plumbing."""
import hashlib

import numpy as np
import pytest

from ctsched.automata import BuchiAutomaton, Edge, GFalse, GTrue
from ctsched.bruteforce import random_buchi, random_ctmdp
from ctsched.check import esem_of, psem_of
from ctsched.data import BENCH_PAIRS, load_automaton, load_model
from ctsched.formats import ModelSource, parse_model
from ctsched.model import Ctmdp, CtmdpError
from ctsched.product import (ApMismatch, TRAP_PAIR, OnTheFlyProductEnv,
                             augment, build_product, project_schedule,
                             schedule_from_ids, schedule_to_ids)


def test_mars_product_shape(mars):
    m, a, p = mars
    names = set(p.ctmdp.state_names)
    assert p.num_states == 7
    assert names == {"(z=0,q0)", "(z=3,q0)", "(z=2,q0)", "(z=1,q0)",
                     "(z=1,q2)", "(z=2,q1)", "(z=0,q1)"}
    # only pairs with an accepting automaton component are accepting
    acc_names = {p.ctmdp.state_names[i] for i in p.accepting}
    assert acc_names == {"(z=2,q1)", "(z=0,q1)"}


def test_mars_product_edges_read_current_label(mars):
    m, a, p = mars
    idx = {n: i for i, n in enumerate(p.ctmdp.state_names)}
    aidx = {n: i for i, n in enumerate(p.ctmdp.action_names)}
    # zone 0 carries no label, so the automaton stays in q0 while leaving it
    succ, rates = p.ctmdp.successors(idx["(z=0,q0)"], aidx["a>q0"])
    assert [p.ctmdp.state_names[int(t)] for t in succ] == ["(z=3,q0)"]
    # zone 3 is labelled g: leaving it moves the automaton to q1
    succ, _ = p.ctmdp.successors(idx["(z=3,q0)"], aidx["c>q1"])
    assert [p.ctmdp.state_names[int(t)] for t in succ] == ["(z=0,q1)"]
    # zone 1 is labelled p: the automaton falls into the rejecting state q2
    succ, _ = p.ctmdp.successors(idx["(z=1,q0)"], aidx["d>q2"])
    assert [p.ctmdp.state_names[int(t)] for t in succ] == ["(z=1,q2)"]


def test_riskreward_product_size(riskreward):
    _, _, p = riskreward
    assert p.num_states == 8


def test_product_preserves_rates(mars):
    m, a, p = mars
    for i, (s, q) in enumerate(p.pairs):
        for j in p.ctmdp.enabled(i):
            act, _ = p.action_pairs[j]
            assert p.ctmdp.successors(i, j)[1].sum() == pytest.approx(
                m.successors(s, act)[1].sum())


def test_empty_automaton_step_goes_to_trap():
    m = Ctmdp.from_transitions(("s0",), ("a",), 0, [(0, 0, 0, 1.0)],
                               ap=("x",), labels=[{0}])
    # the single edge requires !x, which never fires
    a = BuchiAutomaton(num_states=1, initial=0, ap=("x",),
                       edges=((Edge(GFalse(), 0),),), accepting=frozenset({0}))
    p = build_product(m, a)
    assert TRAP_PAIR in p.pairs
    trap = p.pairs.index(TRAP_PAIR)
    assert trap not in p.accepting
    succ, _ = p.ctmdp.successors(trap, p.ctmdp.enabled(trap)[0])
    assert list(succ) == [trap]


def test_ap_mismatch_raises():
    m = Ctmdp.from_transitions(("s0",), ("a",), 0, [(0, 0, 0, 1.0)])
    a = BuchiAutomaton(num_states=1, initial=0, ap=("ghost",),
                       edges=((Edge(GTrue(), 0),),), accepting=frozenset({0}))
    with pytest.raises(ApMismatch):
        build_product(m, a)


def test_short_labels_raise_a_model_error():
    # from_transitions accepts any number of labels; only validate counts
    # them, so the product names the mismatch instead of indexing past it
    m = Ctmdp.from_transitions(("s0", "s1"), ("a",), 0,
                               [(0, 0, 1, 1.0), (1, 0, 0, 1.0)],
                               ap=("x",), labels=[{0}])
    a = BuchiAutomaton(num_states=1, initial=0, ap=("x",),
                       edges=((Edge(GTrue(), 0),),), accepting=frozenset({0}))
    message = "model has 2 states but labels for 1"
    with pytest.raises(CtmdpError, match=message):
        build_product(m, a)
    with pytest.raises(CtmdpError, match=message):
        OnTheFlyProductEnv(m, a)


def test_augment_splits_accepting_exits(riskreward):
    _, _, p = riskreward
    zeta = 0.99
    aug = augment(p, zeta)
    am = aug.product.ctmdp
    assert am.num_states == p.num_states + 1
    assert aug.product.accepting == frozenset({aug.sink})
    for (s, a), (succ, rates) in p.ctmdp.trans.items():
        asucc, arates = am.successors(s, a)
        lam = float(rates.sum())
        # exit rates are preserved by the split
        assert arates.sum() == pytest.approx(lam, rel=1e-12)
        if s in p.accepting:
            assert aug.sink in asucc
            i = list(asucc).index(aug.sink)
            assert arates[i] == pytest.approx(lam * (1 - zeta))
            for t, r in zip(succ, rates):
                j = list(asucc).index(int(t))
                assert arates[j] == pytest.approx(float(r) * zeta)
        else:
            assert aug.sink not in asucc
    # the sink is absorbing
    succ, rates = am.successors(aug.sink, am.enabled(aug.sink)[0])
    assert list(succ) == [aug.sink] and rates[0] == 1.0


def test_augment_keeps_trap_and_sink_apart():
    # the first random product of this draw has a trap state
    rng = np.random.default_rng(1)
    p = build_product(random_ctmdp(rng, 5, ap=("g", "p")), random_buchi(rng))
    assert TRAP_PAIR in p.pairs
    trap = p.pairs.index(TRAP_PAIR)
    aug = augment(p, 0.99)
    pairs, action_pairs = aug.product.pairs, aug.product.action_pairs
    assert len(set(pairs)) == len(pairs)
    assert len(set(action_pairs)) == len(action_pairs)
    assert aug.product.state_index()[TRAP_PAIR] == trap != aug.sink
    # schedules leave out only the trap; the sink keeps its stay action
    sigma = np.array([aug.product.ctmdp.enabled(s)[0]
                      for s in range(aug.product.num_states)])
    sched = schedule_from_ids(aug.product, sigma)
    assert TRAP_PAIR not in sched and pairs[aug.sink] in sched


def test_augment_rejects_bad_zeta(riskreward):
    _, _, p = riskreward
    from ctsched.model import CtmdpError
    with pytest.raises(CtmdpError):
        augment(p, 1.0)


def test_schedule_id_round_trip(mars):
    _, _, p = mars
    rng = np.random.default_rng(2)
    for _ in range(5):
        sigma = np.array([int(rng.choice(p.ctmdp.enabled(s)))
                          for s in range(p.num_states)])
        sched = schedule_from_ids(p, sigma)
        back = schedule_to_ids(p, sched)
        assert np.array_equal(back, sigma)


def test_schedule_to_ids_falls_back_on_missing_states(mars):
    _, _, p = mars
    sigma = schedule_to_ids(p, {})
    for s in range(p.num_states):
        assert sigma[s] == p.ctmdp.enabled(s)[0]


def test_schedule_to_ids_rejects_disabled_choices(mars):
    m, a, p = mars
    sched = schedule_from_ids(
        p, np.array([p.ctmdp.enabled(s)[0] for s in range(p.num_states)]))
    sched[(0, 0)] = (99, 99)
    with pytest.raises(CtmdpError, match=r"\(99, 99\).*\(0, 0\)"):
        schedule_to_ids(p, sched)
    # psem_of and esem_of grade no other schedule in its place
    for grade in (psem_of, esem_of):
        with pytest.raises(CtmdpError):
            grade(p, sched)


def test_project_schedule(mars):
    m, a, p = mars
    sigma = np.array([p.ctmdp.enabled(s)[0] for s in range(p.num_states)])
    sched = schedule_from_ids(p, sigma)
    proj = project_schedule(p, sched)
    for (s, q), act in proj.items():
        assert act in m.enabled(s)
    assert set(proj) == {(s, q) for (s, q) in p.pairs if s is not None}


# ---------------------------------------------------------------------------
# pinned products


def _product_digest(p):
    """SHA-256 over the pairs, names, labels and accepting set of a product,
    and the bytes of its choice rows."""
    m, ch = p.ctmdp, p.ctmdp.choices
    h = hashlib.sha256()
    h.update(repr((p.pairs, p.action_pairs, m.state_names, m.action_names,
                   [sorted(lab) for lab in m.labels],
                   sorted(p.accepting))).encode())
    for col in (ch.state, ch.action, ch.ptr, ch.succ, ch.rate):
        h.update(col.tobytes())
    return h.hexdigest()


PINNED_PRODUCTS = {
    "riskrewardxriskreward": "7dbe9a1508fceb97643ddfa485191973ee9cf198af322d413acb958d2e56983e",
    "marsxfig1": "6d81515f793009fa7510af50801a722d67fbbfb148de0ac4e66e10306a4ca792",
    "polling2xpolling": "017cab1ba7d63d8afec80278e48678907270bb2dc803d418607665c35e9353f7",
    "polling8": "ac999ac313de927548713171f0c3a63b0607838a3d0e37d64ae016fd3d7e872b",
    "hazard30": "e9453e083b30ca1f81e9dfe274e641b2a666c0849de245cf13c8479c567cf27b",
}


def test_built_products_are_pinned(perfbench):
    families = perfbench("families")
    products = {f"{m}x{a}": build_product(load_model(m), load_automaton(a))
                for m, a in BENCH_PAIRS}
    for name, text in (
            ("polling8", families.polling_text(
                8, **families.polling_params(np.random.default_rng(1)))),
            ("hazard30", families.hazard_text(
                30, **families.hazard_params(np.random.default_rng(1))))):
        hoa = (families.POLLING_HOA if name.startswith("polling")
               else families.HAZARD_HOA)
        products[name] = build_product(parse_model(ModelSource(text, origin=name)),
                                       load_automaton(hoa[:-len(".hoa")]))
    got = {name: _product_digest(p) for name, p in products.items()}
    assert got == PINNED_PRODUCTS
