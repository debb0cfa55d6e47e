"""Q-learning machinery: tables, updates, the on-the-fly product, trainers."""
import math

import numpy as np
import pytest

from ctsched.automata import BuchiAutomaton, Edge, GAp, GNot, GTrue
from ctsched.learn import (EXP_GAMMA, SAT_GAMMA, Hyperparams, OnTheFlyProductEnv,
                           QTable, extract_schedule, learn_exp, learn_sat,
                           q_update, select_action)
from ctsched.model import Ctmdp
from ctsched.product import build_product
from ctsched.simulate import RngHandle, sample_transition


def gf_g_automaton():
    """Deterministic two-state automaton for 'g holds infinitely often'."""
    e0 = (Edge(GNot(GAp(0)), 0), Edge(GAp(0), 1))
    return BuchiAutomaton(num_states=2, initial=0, ap=("g",),
                          edges=(e0, e0), accepting=frozenset({1}))


def fork_model():
    """s0 picks between an accepting trap (via a) and a dead trap (via b)."""
    return Ctmdp.from_transitions(
        ("s0", "s1", "s2"), ("a", "b"), 0,
        [(0, 0, 1, 2.0), (0, 1, 2, 2.0), (1, 0, 1, 1.0), (2, 0, 2, 1.0)],
        ap=("g",), labels=[set(), {0}, set()])


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(gamma=1.0)
    with pytest.raises(ValueError):
        Hyperparams(beta=0.0)
    with pytest.raises(ValueError):
        Hyperparams(epsilon=-0.1)
    with pytest.raises(ValueError):
        Hyperparams(zeta=1.0)
    with pytest.raises(ValueError):
        Hyperparams(ep_n=0)


def test_alpha_for_objective_defaults():
    hp = Hyperparams()
    cap = 10.0
    assert hp.alpha_for(cap, satisfaction=True) == pytest.approx(
        cap * (1 - SAT_GAMMA) / SAT_GAMMA)
    assert hp.alpha_for(cap, satisfaction=False) == pytest.approx(
        cap * (1 - EXP_GAMMA) / EXP_GAMMA)
    # an explicit gamma or alpha wins over the per-objective default
    assert Hyperparams(gamma=0.5).alpha_for(cap, satisfaction=False) == cap
    assert Hyperparams(alpha=0.25).alpha_for(cap) == 0.25


def test_qtable_best_breaks_ties_by_action_order():
    q = QTable()
    actions = ((0, 0), (1, 0))
    assert q.best((0, 0), actions) == ((0, 0), 0.0)
    q.update((0, 0), (1, 0), 1.0, 0.5)
    assert q.best((0, 0), actions) == ((1, 0), 0.5)


def test_q_update_formula():
    hp = Hyperparams(beta=0.25, alpha=0.5)
    q = QTable()
    s, a, s2 = (0, 0), (0, 0), (1, 0)
    q.update(s2, (0, 0), 1.0, 2.0)  # bootstrap target max_a' Q(s2, a') = 2
    tau = 0.8
    got = q_update(q, s, a, 0.3, tau, s2, ((0, 0),), hp)
    want = 0.25 * (0.3 + math.exp(-0.5 * tau) * 2.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_q_update_terminal_skips_bootstrap():
    hp = Hyperparams(beta=0.5, alpha=0.5)
    q = QTable()
    q.update((1, 0), (0, 0), 1.0, 100.0)  # would dominate if bootstrapped
    got = q_update(q, (0, 0), (0, 0), 1.0, 0.1, None, (), hp)
    assert got == pytest.approx(0.5 * 1.0)


def test_q_update_requires_resolved_alpha():
    with pytest.raises(ValueError):
        q_update(QTable(), (0, 0), (0, 0), 0.0, 0.1, None, (), Hyperparams())
    with pytest.raises(ValueError):
        q_update(QTable(), (0, 0), (0, 0), 0.0, -0.1, None, (),
                 Hyperparams(alpha=1.0))


def test_decay_beta_first_update_hits_target():
    hp = Hyperparams(alpha=0.5, decay_beta=True)
    q = QTable()
    q_update(q, (0, 0), (0, 0), 0.7, 0.1, None, (), hp)
    assert q.get((0, 0), (0, 0)) == pytest.approx(0.7)
    # the second update averages with weight 1/2
    q_update(q, (0, 0), (0, 0), 0.1, 0.1, None, (), hp)
    assert q.get((0, 0), (0, 0)) == pytest.approx(0.4)


def test_select_action_greedy_and_exploring():
    q = QTable()
    actions = ((0, 0), (1, 0))
    q.update((0, 0), (1, 0), 1.0, 1.0)
    rng = RngHandle(0, "exploration")
    assert select_action(q, (0, 0), actions, 0.0, rng) == (1, 0)
    picks = {select_action(q, (0, 0), actions, 1.0, rng) for _ in range(100)}
    assert picks == set(actions)


def test_on_the_fly_env_matches_materialized_product(riskreward, mars):
    m = fork_model()
    a = gf_g_automaton()
    p = build_product(m, a)
    env = OnTheFlyProductEnv(m, a)
    assert env.reset() == (m.initial, a.initial)
    for i, pair in enumerate(p.pairs):
        assert set(env.actions(pair)) == {
            p.action_pairs[j] for j in p.ctmdp.enabled(i)}
        assert env.is_accepting(pair) == (i in p.accepting)
    # the env races the model's rows draw for draw like sample_transition
    for m, a, p in (riskreward, mars):
        env = OnTheFlyProductEnv(m, a)
        for seed, (s, q) in enumerate(p.pairs):
            if s is None:
                continue
            for act, q2 in env.actions((s, q)):
                env_rng = RngHandle(seed, "trajectory")
                model_rng = RngHandle(seed, "trajectory")
                for _ in range(20):
                    t, dwell = sample_transition(m, s, act, model_rng)
                    assert env.sample((s, q), (act, q2), env_rng) == (
                        (t, q2), dwell)


def test_env_sampling_respects_rates():
    m = Ctmdp.from_transitions(
        ("s0", "s1"), ("a",), 0,
        [(0, 0, 0, 1.0), (0, 0, 1, 3.0), (1, 0, 1, 1.0)],
        ap=("g",), labels=[set(), {0}])
    env = OnTheFlyProductEnv(m, gf_g_automaton())
    rng = RngHandle(23, "trajectory")
    pair = env.reset()
    action = env.actions(pair)[0]
    n = 30000
    hits = 0
    for _ in range(n):
        nxt, dwell = env.sample(pair, action, rng)
        hits += nxt[0] == 1
        assert dwell > 0
    assert hits / n == pytest.approx(0.75, abs=0.01)


def test_learn_sat_finds_the_accepting_trap():
    m = fork_model()
    a = gf_g_automaton()
    hp = Hyperparams(ep_len=40, ep_n=3000)
    res = learn_sat(m, a, hp, seed=0)
    act, _ = res.schedule[(0, 0)]
    assert m.action_names[act] == "a"
    assert res.alpha == pytest.approx(
        m.max_exit_rate * (1 - SAT_GAMMA) / SAT_GAMMA)


def test_learn_exp_finds_the_accepting_trap():
    m = fork_model()
    a = gf_g_automaton()
    hp = Hyperparams(ep_len=40, ep_n=3000)
    res = learn_exp(m, a, hp, seed=0)
    act, _ = res.schedule[(0, 0)]
    assert m.action_names[act] == "a"
    # the estimate is the de-discounted initial value, a long-run fraction
    assert 0.0 <= res.estimate <= 1.2


def test_learn_results_are_seed_reproducible():
    m = fork_model()
    a = gf_g_automaton()
    hp = Hyperparams(ep_len=20, ep_n=200)
    r1 = learn_sat(m, a, hp, seed=4)
    r2 = learn_sat(m, a, hp, seed=4)
    assert r1.qtable.q == r2.qtable.q
    assert r1.steps_run == r2.steps_run
    r3 = learn_sat(m, a, hp, seed=5)
    assert r1.qtable.q != r3.qtable.q


def test_extract_schedule_covers_visited_states():
    m = fork_model()
    a = gf_g_automaton()
    hp = Hyperparams(ep_len=20, ep_n=100)
    res = learn_sat(m, a, hp, seed=1)
    env = OnTheFlyProductEnv(m, a)
    sched = extract_schedule(res.qtable, env)
    for pair, action in sched.items():
        assert action in env.actions(pair)
