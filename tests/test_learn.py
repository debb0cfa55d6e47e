"""Q-learning machinery: tables, updates, the on-the-fly product, trainers."""
import math
from collections import Counter

import numpy as np
import pytest

from ctsched.automata import BuchiAutomaton, Edge, GAp, GNot, GTrue
from ctsched.bruteforce import random_buchi, random_ctmdp
from ctsched.check import esem_optimal
from ctsched.data import BENCH_PAIRS, load_automaton, load_model
from ctsched.learn import (EXP_GAMMA, SAT_GAMMA, Hyperparams, LearnResult,
                           OnTheFlyProductEnv, accepting_dwell,
                           learn_exp, learn_sat)
from ctsched.model import ActionNotEnabled, Ctmdp, CtmdpError
from ctsched.product import TRAP_PAIR, build_product
from ctsched.simulate import RngHandle, make_rngs, sample_transition
from test_pinned import PINNED_Q, PINNED_SCHEDULE, PINNED_STEPS


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


def test_a_state_without_actions_raises_in_both_learners():
    # s1 has no action, and every run reaches it from s0; both learners
    # name it as the checker's optimizers do for the product
    m = Ctmdp.from_transitions(("s0", "s1"), ("a",), 0, [(0, 0, 1, 1.0)])
    gf_true = BuchiAutomaton(num_states=1, initial=0, ap=(),
                             edges=((Edge(GTrue(), 0),),),
                             accepting=frozenset({0}))
    message = r"^state 1 \(\(s1,q0\)\) has no enabled action$"
    for learn in (learn_sat, learn_exp):
        with pytest.raises(CtmdpError, match=message):
            learn(m, gf_true, Hyperparams(ep_n=5, ep_len=5), seed=0)
    with pytest.raises(CtmdpError, match=message):
        esem_optimal(build_product(m, gf_true))


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
    # e^{-alpha dwell} must shrink: a negative alpha grows the bootstrap,
    # zero leaves it undiscounted and nan poisons every value
    for alpha in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0,inf\)"):
            Hyperparams(alpha=alpha)
    # a NaN or negative tol could never stop a run early
    for tol in (math.nan, -1.0):
        with pytest.raises(ValueError, match="tol must be non-negative"):
            Hyperparams(tol=tol)
    assert Hyperparams(tol=0.0).tol == 0.0
    # a fractional budget would fail later inside range()
    for name in ("ep_n", "ep_len"):
        for value in (2.5, 3.0, 0, -1):
            with pytest.raises(ValueError,
                               match=f"{name} must be a positive integer"):
                Hyperparams(**{name: value})
    assert Hyperparams(ep_n=np.int64(3)).ep_n == 3


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


def loop_model():
    """One g-labelled state looping at rate 2: the product steps from (0, 0)
    to the accepting pair (0, 1) and stays there, one action per pair."""
    return Ctmdp.from_transitions(("s0",), ("a",), 0, [(0, 0, 0, 2.0)],
                                  ap=("g",), labels=[{0}])


def dwells(seed, n):
    """The first n dwells the trainer draws on ``loop_model``: each race
    takes a dwell draw, then a successor draw."""
    rng = RngHandle(seed, "trajectory")
    out = []
    for _ in range(n):
        out.append(-math.log1p(-rng.uniform()) / 2.0)
        rng.uniform()
    return out


def test_q_update_formula():
    # Q(s,a) <- (1-beta) Q(s,a) + beta (r + e^{-alpha tau} max_a' Q(s',a'))
    hp = Hyperparams(beta=0.25, alpha=0.5, epsilon=0.0, ep_n=1, ep_len=4)
    res = learn_exp(loop_model(), gf_g_automaton(), hp, seed=3)
    d = dwells(3, 4)
    q1 = 0.0
    for tau in d[1:]:
        target = accepting_dwell(True, tau) + math.exp(-0.5 * tau) * q1
        q1 = (1 - 0.25) * q1 + 0.25 * target
    # (0, 0) bootstraps from (0, 1) before (0, 1) is ever updated
    assert res.qtable.q == {((0, 0), (0, 1)): 0.0, ((0, 1), (0, 1)): q1}
    assert res.qtable.visits == {((0, 0), (0, 1)): 1, ((0, 1), (0, 1)): 3}
    assert q1 > 0.0 and res.estimate == 0.0


def test_q_update_terminal_skips_bootstrap():
    # zeta = 0.01: every accepting step pays out with probability 0.99
    hp = Hyperparams(beta=0.5, alpha=0.5, zeta=0.01, epsilon=0.0, ep_n=2,
                     ep_len=10)
    coin = RngHandle(1, "coin")
    assert coin.uniform() < 0.99 and coin.uniform() < 0.99
    res = learn_sat(loop_model(), gf_g_automaton(), hp, seed=1)
    assert res.steps_run == 4
    # each payout hits the target 1 with nothing bootstrapped; the second
    # episode's first step bootstraps the first payout's value
    q1 = 0.5 * 1.0
    tau = dwells(1, 3)[2]
    q0 = 0.5 * (0.0 + math.exp(-0.5 * tau) * q1)
    assert res.qtable.q == {((0, 0), (0, 1)): q0,
                            ((0, 1), (0, 1)): 0.5 * q1 + 0.5 * 1.0}


def test_decay_beta_first_update_hits_target():
    hp = Hyperparams(alpha=0.5, decay_beta=True, epsilon=0.0, ep_n=1, ep_len=3)
    res = learn_exp(loop_model(), gf_g_automaton(), hp, seed=0)
    _, d1, d2 = dwells(0, 3)
    first = d1 + math.exp(-0.5 * d1) * 0.0
    # the second update averages with weight 1/2
    second = (1 - 0.5) * first + 0.5 * (d2 + math.exp(-0.5 * d2) * first)
    assert res.qtable.q[((0, 1), (0, 1))] == second
    assert res.qtable.visits[((0, 1), (0, 1))] == 2


def bad_first_fork():
    """``fork_model`` with the dead trap behind action 0 and the accepting
    trap behind action 1."""
    return Ctmdp.from_transitions(
        ("s0", "s1", "s2"), ("a", "b"), 0,
        [(0, 0, 2, 2.0), (0, 1, 1, 2.0), (1, 0, 1, 1.0), (2, 0, 2, 1.0)],
        ap=("g",), labels=[set(), {0}, set()])


def test_schedule_breaks_ties_by_action_order():
    a = gf_g_automaton()
    env = OnTheFlyProductEnv(bad_first_fork(), a)
    # epsilon 0: the first slot is taken and stays at 0 in the dead trap,
    # every untaken slot ties with it at 0, so the earliest action wins
    res = learn_exp(bad_first_fork(), a, Hyperparams(epsilon=0.0, ep_n=20,
                                                     ep_len=5), seed=0)
    assert res.schedule
    assert all(act == env.actions(s)[0] for s, act in res.schedule.items())
    # a later slot of strictly greater value wins
    res = learn_exp(bad_first_fork(), a, Hyperparams(epsilon=0.2, ep_n=200,
                                                     ep_len=3), seed=0)
    assert res.schedule[(0, 0)] == (1, 0)


def test_select_action_greedy_and_exploring():
    a = gf_g_automaton()
    # epsilon 0: all values tie at 0 until taken, so the earliest slot wins
    res = learn_exp(bad_first_fork(), a, Hyperparams(epsilon=0.0, ep_n=20,
                                                     ep_len=5), seed=0)
    env = OnTheFlyProductEnv(bad_first_fork(), a)
    assert res.qtable.visits[((0, 0), (0, 0))] == 20
    assert all(act == env.actions(s)[0] for s, act in res.qtable.q)
    # epsilon 1: every step explores, and both actions of s0 are drawn
    res = learn_exp(bad_first_fork(), a, Hyperparams(epsilon=1.0, ep_n=200,
                                                     ep_len=1), seed=0)
    picks = {act for s, act in res.qtable.q if s == (0, 0)}
    assert picks == set(env.actions((0, 0)))
    # once action 1 has paid, greedy steps take it over the earlier action 0
    res = learn_exp(bad_first_fork(), a, Hyperparams(epsilon=0.2, ep_n=200,
                                                     ep_len=3), seed=0)
    v = res.qtable.visits
    assert v[((0, 0), (1, 0))] > 4 * v[((0, 0), (0, 0))]


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


def test_env_sample_rejects_a_disabled_action(mars):
    m, a, _ = mars
    env = OnTheFlyProductEnv(m, a)
    with pytest.raises(ActionNotEnabled, match=r"\(9, 9\).*\(0, 0\)"):
        env.sample((0, 0), (9, 9), RngHandle(0, "trajectory"))


def test_env_rejects_a_pair_out_of_range(mars):
    m, a, _ = mars
    env = OnTheFlyProductEnv(m, a)
    with pytest.raises(CtmdpError, match=r"\(99, 0\)"):
        env.actions((99, 0))
    with pytest.raises(CtmdpError, match=r"\(99, 0\)"):
        env.sample((99, 0), (0, 0), RngHandle(0, "trajectory"))
    with pytest.raises(CtmdpError, match=r"\(99, 0\)"):
        env.is_accepting((99, 0))
    with pytest.raises(CtmdpError, match=r"\(99, 1\)"):
        env.is_accepting((99, 1))


@pytest.mark.parametrize("fixture", ["mars", "riskreward"])
def test_env_rejects_a_pair_the_walk_never_reached(fixture, request):
    m, a, p = request.getfixturevalue(fixture)
    env = OnTheFlyProductEnv(m, a)
    assert (0, 2) not in p.pairs
    with pytest.raises(CtmdpError, match=r"\(0, 2\) is not reachable"):
        env.actions((0, 2))
    with pytest.raises(CtmdpError, match=r"\(0, 2\) is not reachable"):
        env.sample((0, 2), (0, 2), RngHandle(0, "trajectory"))
    with pytest.raises(CtmdpError, match=r"\(0, 2\) is not reachable"):
        env.is_accepting((0, 2))
    # the view holds the product's states and no more
    assert env.p is p
    assert list(env.ids) == list(p.pairs)


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


def test_schedule_covers_visited_states():
    m = fork_model()
    a = gf_g_automaton()
    hp = Hyperparams(ep_len=20, ep_n=100)
    res = learn_sat(m, a, hp, seed=1)
    env = OnTheFlyProductEnv(m, a)
    visited = dict.fromkeys(s for s, _ in res.qtable.q if s != TRAP_PAIR)
    assert list(res.schedule) == list(visited)
    for pair, action in res.schedule.items():
        assert action in env.actions(pair)


def test_learners_share_a_table_whose_rows_are_built():
    m, a = load_model("riskreward"), load_automaton("riskreward")
    # build_product builds every reachable row of the model's one product
    p = build_product(m, a)
    rows = (list(p.acts), list(p.succ), list(p.cum))
    # the rows carry no learning state: two learners in turn on the table
    # each give the pinned run of a fresh one, and no row is built again
    for _ in range(2):
        res = learn_sat(m, a, Hyperparams(ep_n=50, ep_len=60, beta=0.05),
                        seed=0)
        assert res.steps_run == PINNED_STEPS
        assert res.schedule == PINNED_SCHEDULE
        assert res.qtable.q == {k: float.fromhex(v)
                                for k, v in PINNED_Q.items()}
        assert build_product(m, a) is p
        for before, now in zip(rows, (p.acts, p.succ, p.cum)):
            assert all(r is s for r, s in zip(before, now, strict=True))


# A reference trainer: Q-learning over dicts keyed (state pair, action pair),
# stepping the env by pairs.  The library trainer works on interned integer
# ids instead and must agree with it bit for bit.

def ref_train(m, a, hp, seed, satisfaction):
    env = OnTheFlyProductEnv(m, a)
    rngs = make_rngs(seed)
    traj, coin, explore = rngs["trajectory"], rngs["coin"], rngs["exploration"]
    alpha = hp.alpha_for(m.max_exit_rate, satisfaction=satisfaction)
    q, visits = {}, {}
    # updates that drop the row's greedy slot below another slot, and
    # updates that tie its maximum in an earlier slot
    moves = Counter()

    def best(s, actions):
        best_a, best_v = actions[0], q.get((s, actions[0]), 0.0)
        for act in actions[1:]:
            v = q.get((s, act), 0.0)
            if v > best_v:
                best_a, best_v = act, v
        return best_a, best_v

    def update(s, act, r, tau, s_next):
        cont = 0.0
        if s_next is not None:
            cont = math.exp(-alpha * tau) * best(s_next, env.actions(s_next))[1]
        beta = 1.0 / (1 + visits.get((s, act), 0)) if hp.decay_beta else hp.beta
        actions = env.actions(s)
        greedy, top = best(s, actions)
        x = q[(s, act)] = (1.0 - beta) * q.get((s, act), 0.0) + beta * (r + cont)
        visits[(s, act)] = visits.get((s, act), 0) + 1
        moves["fell"] += act == greedy and x < best(s, actions)[1]
        moves["tied"] += x == top and actions.index(act) < actions.index(greedy)

    init = env.reset()
    steps, history, stable, converged = 0, [], 0, False
    for episodes in range(1, hp.ep_n + 1):
        s = init
        for _ in range(hp.ep_len):
            actions = env.actions(s)
            if hp.epsilon > 0.0 and explore.uniform() < hp.epsilon:
                act = actions[explore.integers(len(actions))]
            else:
                act = best(s, actions)[0]
            s2, dwell = env.sample(s, act, traj)
            steps += 1
            if satisfaction:
                if env.is_accepting(s) and coin.uniform() < 1.0 - hp.zeta:
                    update(s, act, 1.0, dwell, None)
                    break
                update(s, act, 0.0, dwell, s2)
            else:
                update(s, act, accepting_dwell(env.is_accepting(s), dwell),
                       dwell, s2)
            s = s2
        if episodes % 500 == 0:
            est = best(init, env.actions(init))[1]
            if history and abs(est - history[-1]) < hp.tol:
                stable += 1
                if stable >= 4:
                    history.append(est)
                    converged = True
                    break
            else:
                stable = 0
            history.append(est)
    estimate = best(init, env.actions(init))[1] * (1.0 if satisfaction else alpha)
    visited = list(dict.fromkeys(s for s, _ in q))
    schedule = {s: best(s, env.actions(s))[0] for s in visited if s != TRAP_PAIR}
    return LearnResult(qtable=None, schedule=schedule, estimate=estimate,
                       episodes_run=episodes, steps_run=steps,
                       converged=converged, alpha=alpha, history=history), \
        q, visits, moves


def equivalence_cases():
    """The bundled pairs, then random models times random automata; those
    automata leave some letters without a move, so runs reach the trap."""
    cases = [(load_model(mn), load_automaton(an)) for mn, an in BENCH_PAIRS]
    rng = np.random.default_rng(909)
    for _ in range(6):
        m = random_ctmdp(rng, num_states=int(rng.integers(3, 7)),
                         ap=("g", "p"))
        cases.append((m, random_buchi(rng, num_states=int(rng.integers(2, 4)))))
    return cases


@pytest.mark.parametrize("epsilon", [0.0, 0.1])
# beta = 1 replaces each value by its target, so greedy slots often fall,
# and zeta = 0.5 pays out often, so slots tie at exactly 1
@pytest.mark.parametrize("decay_beta, beta, zeta", [(False, 0.05, 0.99),
                                                    (True, 0.05, 0.99),
                                                    (False, 1.0, 0.5)],
                         ids=["False", "True", "beta=1.0"])
@pytest.mark.parametrize("satisfaction", [True, False])
def test_trainer_matches_the_dict_keyed_reference(satisfaction, decay_beta,
                                                  beta, zeta, epsilon):
    train = learn_sat if satisfaction else learn_exp
    # 3000 episodes give six convergence checks, enough to stop early
    hp = Hyperparams(ep_n=3000, ep_len=5, beta=beta, epsilon=epsilon,
                     zeta=zeta, decay_beta=decay_beta, tol=0.05)
    trapped, converged, moves = 0, set(), Counter()
    for seed, (m, a) in enumerate(equivalence_cases()):
        res = train(m, a, hp, seed=seed)
        ref, q, visits, moved = ref_train(m, a, hp, seed, satisfaction)
        moves += moved
        assert ([(k, v.hex()) for k, v in res.qtable.q.items()]
                == [(k, v.hex()) for k, v in q.items()])
        assert list(res.qtable.visits.items()) == list(visits.items())
        for field in ("steps_run", "episodes_run", "converged", "alpha"):
            assert getattr(res, field) == getattr(ref, field), field
        assert [h.hex() for h in res.history] == [h.hex() for h in ref.history]
        assert res.estimate.hex() == ref.estimate.hex()
        assert list(res.schedule.items()) == list(ref.schedule.items())
        trapped += any(s == TRAP_PAIR for s, _ in q)
        converged.add(res.converged)
    assert trapped >= 2
    assert True in converged
    # the trainer rescans a row whose greedy slot fell and moves its greedy
    # slot to an earlier tie; without exploration only greedy slots are
    # updated, the rest stay 0, and neither can happen
    if epsilon > 0.0:
        assert moves["fell"] >= 1
        if satisfaction and beta == 1.0:
            assert moves["tied"] >= 1
