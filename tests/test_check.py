"""Exact checker: discounted values, long-run averages, PSem/ESem and their
optimizers, cross-checked against closed forms and brute-force enumeration."""
import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import ctsched.check
import ctsched.model

from ctsched.bruteforce import (_gate, brute_force_average,
                                brute_force_discounted, brute_force_esem,
                                brute_force_psem, random_buchi, random_ctmdp,
                                random_marked_product, random_reward_spec,
                                random_schedule)
from ctsched.check import (BlackwellReport, Chain, ConvergenceError,
                           RewardSpec, _absorption, _attractor, _bsccs,
                           _gather, _improve, _in_unit_interval, _induced,
                           _policy_gain_bias, _reach_probability,
                           _recurrent_gain_bias,
                           accepting_rate_spec, alpha_from_gamma,
                           average_optimal, average_value, blackwell_probe,
                           discounted_optimal, discounted_value, esem_of,
                           esem_optimal, psem_of, psem_optimal,
                           step_reward_spec, uniformized_reward_spec)
from ctsched.data import BENCH_PAIRS, load_automaton, load_model
from ctsched.model import ChoiceRows, Ctmdp, CtmdpError, uniformize
from ctsched.product import (TRAP_PAIR, ProductCtmdp, augment, build_product,
                              project_schedule, schedule_from_ids,
                              schedule_to_ids)


def absorbing_pair(lam0=2.0, lam1=3.0):
    """State 0 jumps to the absorbing state 1 at rate lam0."""
    return Ctmdp.from_transitions(
        ("s0", "s1"), ("a",), 0,
        [(0, 0, 1, lam0), (1, 0, 1, lam1)])


def test_discounted_value_closed_form_state_reward():
    lam0, alpha = 2.0, 0.7
    m = absorbing_pair(lam0=lam0)
    spec = RewardSpec(state_rate=np.array([0.0, 1.0]))
    sigma = np.zeros(2, dtype=np.int64)
    v = discounted_value(m, spec, sigma, alpha)
    # earning rate 1 forever is worth 1/alpha; state 0 discounts the arrival
    assert v[1] == pytest.approx(1 / alpha, rel=1e-12)
    assert v[0] == pytest.approx(lam0 / (alpha * (lam0 + alpha)), rel=1e-12)


def test_discounted_value_closed_form_action_reward():
    lam1, alpha, c = 3.0, 0.5, 2.0
    m = absorbing_pair(lam1=lam1)
    spec = RewardSpec(state_rate=np.zeros(2), action_reward={(1, 0): c})
    sigma = np.zeros(2, dtype=np.int64)
    v = discounted_value(m, spec, sigma, alpha)
    # a reward of c per jump at rate lam1: v = c (lam1 + alpha) / alpha
    assert v[1] == pytest.approx(c * (lam1 + alpha) / alpha, rel=1e-12)


def test_discounted_value_rejects_bad_inputs():
    m = absorbing_pair()
    spec = RewardSpec(state_rate=np.zeros(2))
    with pytest.raises(CtmdpError):
        discounted_value(m, spec, np.zeros(2, dtype=np.int64), 0.0)
    for alpha in (np.nan, np.inf):     # NaN values, or zeros
        with pytest.raises(CtmdpError, match="positive and finite"):
            discounted_value(m, spec, np.zeros(2, dtype=np.int64), alpha)
    with pytest.raises(CtmdpError):
        discounted_value(m, spec, np.array([1, 0]), 1.0)  # disabled action


def test_discounted_optimal_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(10):
        m = random_ctmdp(rng, num_states=5, max_schedules=500)
        spec = random_reward_spec(rng, m)
        alpha = float(rng.uniform(0.1, 2.0))
        v, sigma = discounted_optimal(m, spec, alpha)
        best = brute_force_discounted(m, spec, alpha)
        assert np.allclose(v, best, rtol=1e-9, atol=1e-9)
        # the returned schedule attains the optimum
        assert np.allclose(discounted_value(m, spec, sigma, alpha), best,
                           rtol=1e-9, atol=1e-9)


def test_average_value_closed_forms():
    lam1 = 3.0
    m = absorbing_pair(lam1=lam1)
    sigma = np.zeros(2, dtype=np.int64)
    spec = RewardSpec(state_rate=np.array([0.0, 1.0]))
    g = average_value(m, spec, sigma)
    # the chain is absorbed in state 1, which earns 1 per unit time
    assert np.allclose(g, [1.0, 1.0])
    spec = RewardSpec(state_rate=np.zeros(2), action_reward={(1, 0): 2.0})
    g = average_value(m, spec, sigma)
    # 2 per jump at lam1 jumps per unit time
    assert np.allclose(g, [2 * lam1, 2 * lam1])


def test_average_value_splits_across_bsccs():
    # two absorbing states with different earning rates
    m = Ctmdp.from_transitions(
        ("s0", "s1", "s2"), ("a",), 0,
        [(0, 0, 1, 1.0), (0, 0, 2, 3.0), (1, 0, 1, 1.0), (2, 0, 2, 1.0)])
    spec = RewardSpec(state_rate=np.array([0.0, 1.0, 0.0]))
    g = average_value(m, spec, np.zeros(3, dtype=np.int64))
    assert g[1] == pytest.approx(1.0)
    assert g[2] == pytest.approx(0.0)
    # 1/4 chance of landing in the earning state
    assert g[0] == pytest.approx(0.25)


def _exact_time_fraction(n, trans, accepting):
    """The long-run fraction of time in ``accepting`` of the irreducible
    single-action chain with (s, t, rate) edges, in exact arithmetic: the
    stationary pi solves pi Q = 0 with sum(pi) = 1."""
    Q = [[Fraction(0)] * n for _ in range(n)]
    for s, t, rate in trans:
        Q[s][t] += Fraction(rate)
        Q[s][s] -= Fraction(rate)
    # the balance equations of states 1..n-1 and the normalization
    A = [[Q[s][t] for s in range(n)] + [Fraction(0)] for t in range(1, n)]
    A.append([Fraction(1)] * (n + 1))
    for c in range(n):
        pivot = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[pivot] = A[pivot], A[c]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c] / A[c][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return sum(A[s][n] / A[s][s] for s in accepting)


def _stiff_chain_error(seed: int, loops: bool) -> float:
    """The largest error of ``average_value`` against the exact time
    fraction over 200 irreducible single-action chains of 3-6 states with
    rates across eleven decades; each state has an edge to s + 1 mod n and
    1-2 further successors, drawn from all states if ``loops``, else from
    the other states."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 7))
        trans = []
        for s in range(n):
            pool = [t for t in range(n) if loops or t != s]
            succ = {(s + 1) % n}
            succ |= set(rng.choice(pool, int(rng.integers(1, 3)),
                                   replace=False).tolist())
            trans += [(s, t, float(rng.uniform(0.5, 2.0)
                                   * 10.0 ** int(rng.integers(-8, 4))))
                      for t in sorted(succ)]
        m = Ctmdp.from_transitions(tuple(f"s{s}" for s in range(n)), ("a",),
                                   0, [(s, 0, t, r) for s, t, r in trans])
        accepting = np.flatnonzero(rng.random(n) < 0.5).tolist()
        got = average_value(m, accepting_rate_spec(n, frozenset(accepting)),
                            np.zeros(n, dtype=np.int64))
        want = float(_exact_time_fraction(n, trans, accepting))
        worst = max(worst, float(np.abs(got - want).max()))
    return worst


def test_average_value_on_stiff_chains_matches_exact_fractions():
    # rates across eleven decades: a slow state's exit rate is many orders
    # below the uniformization rate, so its balance equation must not be
    # recovered from 1 - (1 - exit / cap)
    assert _stiff_chain_error(0, loops=False) <= 1e-7


def test_average_value_on_stiff_chains_with_self_loops():
    # a self-loop's rate is part of the exit rate, and a large one would
    # hide the rate of leaving if that were recovered as exit - self-loop
    assert _stiff_chain_error(2, loops=True) <= 1e-7


@pytest.mark.parametrize("loop", [1e6, 1e10, 1e13])
def test_psem_and_discounted_values_on_stiff_self_loops(loop):
    # a leaves at rate 3 behind a self-loop at rate ``loop``: to g, which is
    # accepting and pays 1 per unit time, with probability 1/3, and its dwell
    # discounts by 3 / (3 + alpha).  The rate of leaving is summed without
    # the self-loop, not recovered as 1 - p_aa, which would lose its digits
    m = Ctmdp.from_transitions(
        ("a", "g", "b"), ("x",), 0,
        [(0, 0, 0, loop), (0, 0, 1, 1.0), (0, 0, 2, 2.0), (1, 0, 1, 1.0),
         (2, 0, 2, 1.0)])
    p = ProductCtmdp(m, tuple((s, 0) for s in range(3)), ((0, 0),),
                     frozenset({1}))
    sigma = np.zeros(3, dtype=np.int64)
    psem = psem_of(p, schedule_from_ids(p, sigma)).value
    assert psem == pytest.approx(1 / 3, rel=1e-12)
    alpha = 0.5
    v = discounted_value(m, RewardSpec(state_rate=np.array([0.0, 1.0, 0.0])),
                         sigma, alpha)
    assert v[0] == pytest.approx(1 / ((3 + alpha) * alpha), rel=1e-12)


def test_a_value_outside_the_unit_interval_raises():
    # g is the only bottom class, so every answer is 1; {a, b, c} leaks only
    # through a -> g, and LU on D - P loses that leak below one ulp of b's
    # pivot, so the ESem solve ends at -0.0194.  That value raises instead
    # of being returned, clipped or not
    r = (1.109e-5, 191.8, 7.779e-8, 1678, 1.256e-6)
    m = Ctmdp.from_transitions(
        ("g", "a", "b", "c"), ("x",), 1,
        [(0, 0, 0, 1.0), (1, 0, 0, r[0]), (1, 0, 2, r[1]), (2, 0, 1, r[2]),
         (2, 0, 3, r[3]), (3, 0, 2, r[4])])
    p = ProductCtmdp(m, tuple((s, 0) for s in range(4)), ((0, 0),),
                     frozenset({0}))
    schedule = schedule_from_ids(p, np.zeros(4, dtype=np.int64))
    for call in (lambda: esem_of(p, schedule), lambda: esem_optimal(p)):
        with pytest.raises(np.linalg.LinAlgError, match=r"leave \[0, 1\]"):
            call()
    # within 1e-9 of [0, 1] the values come back unchanged, beyond it or
    # NaN they raise
    near = np.array([-1e-9, 0.5, 1.0 + 1e-9])
    assert _in_unit_interval(near) is near
    for bad in (-2e-9, 1.0 + 2e-9, np.nan):
        with pytest.raises(np.linalg.LinAlgError):
            _in_unit_interval(np.array([0.5, bad]))


def test_average_optimal_matches_brute_force():
    rng = np.random.default_rng(47)
    for _ in range(10):
        m = random_ctmdp(rng, num_states=5, max_schedules=500)
        spec = random_reward_spec(rng, m)
        g_opt, sigma = average_optimal(m, spec)
        best_gains, _ = brute_force_average(m, spec)
        assert np.allclose(g_opt, best_gains, rtol=1e-8, atol=1e-8)
        achieved = average_value(m, spec, sigma)
        assert np.allclose(achieved, best_gains, rtol=1e-8, atol=1e-8)


def test_psem_of_mars_never_b(mars):
    m, a, p = mars
    aidx = {n: j for j, n in enumerate(p.ctmdp.action_names)}
    sigma = np.array([p.ctmdp.enabled(s)[0] for s in range(p.num_states)])
    sidx = {n: i for i, n in enumerate(p.ctmdp.state_names)}
    sigma[sidx["(z=0,q0)"]] = aidx["a>q0"]
    sigma[sidx["(z=0,q1)"]] = aidx["a>q0"]
    res = psem_of(p, schedule_from_ids(p, sigma))
    # the a-c cycle visits the g zone forever and never risks zone 1
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.values[sidx["(z=1,q2)"]] == 0.0


def _two_sinks(rng, n):
    """A random marked product of n states whose last two are absorbing,
    the first of them accepting, so that many states can reach both a good
    and a bad bottom class."""
    trans = [(s, a, int(t), float(rng.uniform(0.5, 5.0)))
             for s in range(n - 2) for a in range(int(rng.integers(1, 3)))
             for t in rng.choice(n, int(rng.integers(1, 4)), replace=False)]
    trans += [(n - 2, 0, n - 2, 1.0), (n - 1, 0, n - 1, 1.0)]
    m = Ctmdp.from_transitions(tuple(f"s{i}" for i in range(n)), ("a", "b"),
                               0, trans)
    return ProductCtmdp(m, tuple((s, 0) for s in range(n)),
                        ((0, 0), (1, 0)), frozenset({n - 2}))


def test_psem_of_gathers_its_chain_once(monkeypatch):
    # the strong-component search and the absorption solve share one
    # gather; the precondition counts products where some state can reach
    # both a good and a bad bottom class, so its value is a real solve and
    # not a rounding residue of 0 or 1
    calls = []
    gather = ctsched.check._gather

    def counted(*args):
        calls.append(1)
        return gather(*args)
    monkeypatch.setattr(ctsched.check, "_gather", counted)
    rng = np.random.default_rng(37)
    solved = 0
    for _ in range(20):
        p = _two_sinks(rng, 6)
        calls.clear()
        values = psem_of(p, random_schedule(rng, p)).values
        solved += bool(np.any((values > 1e-9) & (values < 1 - 1e-9)))
        assert len(calls) == 1
    assert solved >= 5


def _psem_optimal_attained(p):
    """psem_optimal, checked to attain its values at every state."""
    opt = psem_optimal(p)
    achieved = psem_of(p, opt.schedule).values
    assert np.allclose(achieved, opt.values, rtol=0, atol=1e-9)
    return opt


def test_psem_optimal_matches_brute_force():
    rng = np.random.default_rng(53)
    for _ in range(10):
        p = random_marked_product(rng, num_states=5, max_schedules=500)
        opt = _psem_optimal_attained(p)
        best, _ = brute_force_psem(p)
        assert opt.value == pytest.approx(best, abs=1e-9)
        # the witnessing schedule must actually achieve the value
        assert psem_of(p, opt.schedule).value == pytest.approx(best, abs=1e-9)
    # model x automaton products: guards that match no letter leave traps
    rng = np.random.default_rng(67)
    traps = compared = 0
    for _ in range(40):
        m = random_ctmdp(rng, num_states=int(rng.integers(3, 6)),
                         max_actions=2, ap=("g", "p"))
        p = build_product(m, random_buchi(rng, num_states=2))
        traps += TRAP_PAIR in p.pairs
        opt = _psem_optimal_attained(p)
        try:
            _gate(p.ctmdp)
        except CtmdpError:
            continue  # too many schedules to enumerate
        best, _ = brute_force_psem(p)
        assert opt.value == pytest.approx(best, abs=1e-9)
        compared += 1
    assert traps >= 10 and compared >= 20
    # a good and a bad sink: the precondition counts products whose initial
    # value is a real solve strictly between 0 and 1, which the draws above
    # almost never give
    rng = np.random.default_rng(71)
    solved = 0
    for _ in range(20):
        p = _two_sinks(rng, 6)
        opt = _psem_optimal_attained(p)
        best, _ = brute_force_psem(p)
        assert opt.value == pytest.approx(best, abs=1e-9)
        solved += 1e-9 < opt.value < 1 - 1e-9
    assert solved >= 5


def test_psem_optimal_decomposes_once_per_model(monkeypatch):
    # the end-components are cached on the model's choice rows, so a second
    # solve of one product runs no strong-component search for them
    calls = []
    search = ctsched.model.connected_components

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)
    monkeypatch.setattr(ctsched.model, "connected_components", counted)
    p = _two_sinks(np.random.default_rng(71), 6)
    first = psem_optimal(p)
    assert calls
    calls.clear()
    second = psem_optimal(p)
    assert not calls
    assert np.array_equal(first.values, second.values)
    assert first.schedule == second.schedule
    # and the masks that every solve shares cannot be written
    kept, comp = p.ctmdp.choices.mec
    with pytest.raises(ValueError):
        kept[0] = not kept[0]
    with pytest.raises(ValueError):
        comp[0] = -1


def _reaching(P, target):
    """The mask of the states of the chain P that reach the mask ``target``
    over its entries, grown one sweep at a time."""
    tail = np.repeat(np.arange(len(target)), np.diff(P.ptr))
    can = target.copy()
    while True:
        grown = can.copy()
        grown[tail[can[P.col]]] = True
        if np.array_equal(grown, can):
            return can
        can = grown


def _stiff_product(rng):
    """A random marked product of 3-6 states, two actions per state, each
    with 1-2 successors drawn from all states at rates uniform(0.5, 2)
    times 10**k, k in -8..3."""
    n = int(rng.integers(3, 7))
    trans = [(s, a, int(t), float(rng.uniform(0.5, 2.0)
                                  * 10.0 ** int(rng.integers(-8, 4))))
             for s in range(n) for a in range(2)
             for t in rng.choice(n, int(rng.integers(1, 3)), replace=False)]
    m = Ctmdp.from_transitions(tuple(f"s{i}" for i in range(n)), ("a", "b"),
                               0, trans)
    accepting = frozenset(np.flatnonzero(rng.random(n) < 0.5).tolist())
    return ProductCtmdp(m, tuple((s, 0) for s in range(n)),
                        ((0, 0), (1, 0)), accepting)


def test_psem_rounds_solve_on_the_closure_of_the_rows_they_play(
        monkeypatch, hazard_line, polling_family):
    # psem_optimal finds the states that reach the accepting-MEC region once,
    # over all rows, and every round solves on that mask; values never drop,
    # so it is also the closure of the rows each round plays
    rounds = []
    reach = ctsched.check._reach_probability

    def replayed(P, target, closure):
        assert np.array_equal(_reaching(P, target), closure)
        rounds.append(P)
        return reach(P, target, closure)
    monkeypatch.setattr(ctsched.check, "_reach_probability", replayed)

    def products():
        for model, automaton in BENCH_PAIRS:
            p = build_product(load_model(model), load_automaton(automaton))
            yield from (p, augment(p, 0.99))
        for n in (30, 200):
            yield hazard_line(n)[0]
        for k in (8, 20):
            yield polling_family(k, lambda1=1.2, lambda2=0.8, mu=4.0)
        rng = np.random.default_rng(59)
        for _ in range(60):
            yield random_marked_product(rng, int(rng.integers(3, 9)))
            yield _two_sinks(rng, int(rng.integers(6, 13)))
            m = random_ctmdp(rng, int(rng.integers(2, 9)), ap=("g", "p"))
            yield build_product(m, random_buchi(rng, int(rng.integers(1, 4))))
            yield _stiff_product(rng)

    solved = 0
    for p in products():
        rounds.clear()
        opt = psem_optimal(p)
        # where only the region reaches it, a value is 0 or 1 with no solve
        assert len(rounds) == opt.iterations or (
            not rounds and opt.iterations == 1
            and np.isin(opt.values, (0.0, 1.0)).all())
        solved += opt.iterations > 1
    assert solved >= 20


def test_esem_optimal_matches_brute_force():
    rng = np.random.default_rng(59)
    for _ in range(10):
        p = random_marked_product(rng, num_states=5, max_schedules=500)
        opt = esem_optimal(p)
        best, _ = brute_force_esem(p)
        assert opt.value == pytest.approx(best, abs=1e-9)
        assert esem_of(p, opt.schedule).value == pytest.approx(best, abs=1e-9)
    # model x automaton products: guards that match no letter leave traps
    rng = np.random.default_rng(73)
    traps = compared = 0
    for _ in range(40):
        m = random_ctmdp(rng, num_states=int(rng.integers(3, 6)),
                         max_actions=2, ap=("g", "p"))
        p = build_product(m, random_buchi(rng, num_states=2))
        traps += TRAP_PAIR in p.pairs
        opt = esem_optimal(p)
        achieved = esem_of(p, opt.schedule).values
        assert np.allclose(achieved, opt.values, rtol=0, atol=1e-9)
        try:
            _gate(p.ctmdp)
        except CtmdpError:
            continue  # too many schedules to enumerate
        best, _ = brute_force_esem(p)
        assert opt.value == pytest.approx(best, abs=1e-9)
        compared += 1
    assert traps >= 10 and compared >= 20


def test_esem_values_lie_in_unit_interval():
    rng = np.random.default_rng(61)
    for _ in range(10):
        p = random_marked_product(rng, num_states=6)
        sched = random_schedule(rng, p)
        vals = esem_of(p, sched).values
        assert np.all(vals >= -1e-12) and np.all(vals <= 1 + 1e-12)


def test_no_returned_zero_is_negative():
    # before _in_unit_interval added +0.0, esem_of, esem_optimal and
    # brute_force_esem returned -0.0 on 27, 6 and 3 of these products
    rng = np.random.default_rng(0)
    for _ in range(300):
        p = random_marked_product(rng, num_states=int(rng.integers(3, 8)))
        sched = random_schedule(rng, p)
        for values in (esem_of(p, sched).values, esem_optimal(p).values,
                       np.array([brute_force_esem(p)[0]])):
            assert not np.signbit(values[values == 0]).any()


def test_riskreward_exact_objectives(riskreward):
    _, _, p = riskreward
    assert psem_optimal(p).value == pytest.approx(1.0, abs=1e-9)
    assert esem_optimal(p).value == pytest.approx(0.9, abs=1e-9)


def test_mars_exact_objectives(mars):
    m, a, p = mars
    sat = psem_optimal(p)
    assert sat.value == pytest.approx(1.0, abs=1e-9)
    exp = esem_optimal(p)
    assert exp.value == pytest.approx(0.75, abs=1e-9)
    act, _ = exp.schedule[(m.initial, a.initial)]
    assert m.action_names[act] == "b"


def test_alpha_from_gamma():
    assert alpha_from_gamma(0.5, 4.0) == pytest.approx(4.0)
    with pytest.raises(CtmdpError):
        alpha_from_gamma(1.0, 4.0)


def test_uniformized_reward_spec_preserves_discounted_values():
    rng = np.random.default_rng(67)
    for _ in range(5):
        m = random_ctmdp(rng, num_states=5)
        spec = random_reward_spec(rng, m)
        alpha = float(rng.uniform(0.2, 1.5))
        cap = m.max_exit_rate
        sigma = np.array([int(rng.choice(m.enabled(s)))
                          for s in range(m.num_states)])
        v1 = discounted_value(m, spec, sigma, alpha)
        v2 = discounted_value(uniformize(m),
                              uniformized_reward_spec(m, spec, alpha, cap),
                              sigma, alpha)
        assert np.allclose(v1, v2, rtol=1e-10, atol=1e-10)


def test_step_reward_spec_scaling():
    m = absorbing_pair(lam0=2.0, lam1=3.0)
    spec = RewardSpec(state_rate=np.array([1.0, 0.0]),
                      action_reward={(0, 0): 4.0})
    steps = step_reward_spec(m, spec, cap=3.0)
    # (state rate + lam * action reward) / cap
    assert steps[(0, 0)] == pytest.approx((1.0 + 2.0 * 4.0) / 3.0)
    assert steps[(1, 0)] == pytest.approx(0.0)


def test_blackwell_probe_stabilizes(riskreward):
    _, _, p = riskreward
    spec = accepting_rate_spec(p.num_states, p.accepting)
    report = blackwell_probe(p.ctmdp, spec,
                             gammas=[0.9, 0.99, 0.999, 0.9999, 0.99999])
    assert isinstance(report, BlackwellReport)
    assert report.stabilized
    # the stabilized discounted choice is gain-optimal
    stable = np.array(report.schedules[-1], dtype=np.int64)
    g_opt, _ = average_optimal(p.ctmdp, spec)
    g_stable = average_value(p.ctmdp, spec, stable)
    assert np.allclose(g_stable, g_opt, atol=1e-9)


def _chain(P):
    """The chain of a dense stochastic matrix, as the checker stores it: no
    self-loop entry, and 1 - P[s, s] on D, so its systems are those of I - P."""
    loops = np.diag(P)
    A = csr_matrix(P - np.diag(loops))
    return Chain(A.indptr.astype(np.int64), A.indices.astype(np.int64), A.data,
                 1.0 - loops)


def _dense(P):
    n = len(P.ptr) - 1
    return csr_matrix((P.data, P.col, P.ptr), shape=(n, n)).toarray()


def _reach(P, target):
    """``_reach_probability`` of the dense stochastic matrix P, through the
    one-action model whose rates are the entries of P, on the attractor of
    its rows toward the target."""
    n = len(P)
    m = Ctmdp.from_transitions(
        tuple(f"s{i}" for i in range(n)), ("a",), 0,
        [(int(s), 0, int(t), P[s, t]) for s, t in zip(*np.nonzero(P))])
    ch = m.choices
    rows = ch.start[:-1]
    mask = np.zeros(n, dtype=bool)
    mask[sorted(target)] = True
    return _reach_probability(_induced(ch, rows, ch.exit[rows]), mask,
                              _attractor(ch, np.ones(n, dtype=bool), mask))


def _random_chain(rng, n):
    """Sparse random stochastic matrix: most entries are zero, so chains
    with several bottom components and dead ends are common."""
    P = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    P[np.arange(n), rng.integers(0, n, n)] += 0.1
    return P / P.sum(axis=1, keepdims=True)


def _classes(P):
    """The bottom classes of the checker's chain P, as lists."""
    members, sizes = _bsccs(P)
    return [x.tolist() for x in np.split(members, np.cumsum(sizes)[:-1])]


def test_bsccs_match_the_edge_loop():
    rng = np.random.default_rng(31)
    for _ in range(200):
        P = _random_chain(rng, int(rng.integers(2, 12)))
        got = _classes(_chain(P))
        _, comp = connected_components(csr_matrix(P), connection="strong")
        leaves = np.ones(comp.max() + 1, dtype=bool)
        for i, j in zip(*np.nonzero(P > 0)):
            if comp[i] != comp[j]:
                leaves[comp[i]] = False
        want = [sorted(np.flatnonzero(comp == c)) for c in range(len(leaves))
                if leaves[c]]
        assert got == want


def _deep_chains(rng):
    """Line- and ladder-shaped chains of 30-80 states where the target lies
    about n steps deep; in some, part of the chain has no path to it."""
    for _ in range(12):
        n = int(rng.integers(30, 81))
        P = np.zeros((n, n))
        up = rng.uniform(0.3, 0.9, n)
        # a line 0 - 1 - ... - (n-1) that reflects at 0; the target is the
        # absorbing end, and an absorbing cut c leaves the states below it
        # no path
        P[np.arange(n - 1), np.arange(1, n)] = up[:-1]
        P[np.arange(1, n - 1), np.arange(n - 2)] = 1.0 - up[1:-1]
        P[0, 0] = 1.0 - up[0]
        P[n - 1, n - 1] = 1.0
        cut = int(rng.integers(1, n - 1)) if rng.random() < 0.5 else None
        if cut is not None:
            P[cut] = 0.0
            P[cut, cut] = 1.0
        yield P, {n - 1}
        # a ladder: rails a_i = i and b_i = h + i climb to a_{h-1}, the
        # target, and to b_{h-1}; a rung b_i -> a_i, or none, in which case
        # the b rail has no path
        h = n // 2
        P = np.zeros((2 * h, 2 * h))
        rung = rng.random() < 0.5
        for i in range(h - 1):
            P[i, i + 1] = up[i]
            P[i, h + i] = 1.0 - up[i]
            P[h + i, h + i + 1] = up[h + i]
            P[h + i, i if rung else h + i] = 1.0 - up[h + i]
        P[h - 1, h - 1] = P[2 * h - 1, 2 * h - 1] = 1.0
        yield P, {h - 1}


def _renumbered(rng, P, target):
    perm = rng.permutation(len(P))
    Q = np.empty_like(P)
    Q[np.ix_(perm, perm)] = P
    return Q, {int(perm[t]) for t in target}


def test_reach_probability_matches_the_fixpoint_reference():
    rng = np.random.default_rng(32)

    def chains():
        for _ in range(200):
            n = int(rng.integers(2, 12))
            P = _random_chain(rng, n)
            yield P, set(rng.choice(n, int(rng.integers(1, n)),
                                    replace=False).tolist())
        for P, target in _deep_chains(rng):
            yield _renumbered(rng, P, target)

    deep_zeros = 0
    for P, target in chains():
        n = len(P)
        # reference: grow the set of states that reach the target one sweep
        # at a time, then solve on the states that reach it
        can = set(target)
        changed = True
        while changed:
            changed = False
            for s in range(n):
                if s not in can and np.any(P[s][sorted(can)] > 0):
                    can.add(s)
                    changed = True
        want = np.zeros(n)
        want[sorted(target)] = 1.0
        t = np.array([s for s in range(n) if s in can and s not in target])
        if len(t):
            A = np.eye(len(t)) - P[np.ix_(t, t)]
            want[t] = np.linalg.solve(A, P[np.ix_(t, sorted(target))].sum(axis=1))
        got = _reach(P, target)
        assert np.array_equal(got == 0, want == 0)
        assert np.allclose(got, np.clip(want, 0.0, 1.0), rtol=0, atol=1e-12)
        deep_zeros += n >= 30 and bool(np.any(got == 0))
    assert deep_zeros >= 5


def _sweep_attractor(ch, allowed, target, rows):
    """The attractor as sweeps: each sweep is a full pass over the states
    against the states of earlier sweeps only, a state joining at its least
    allowed row with a successor among them, which goes into ``rows``; it
    returns those states."""
    done = set(target)
    while True:
        sweep = {}
        for s in range(len(ch.start) - 1):
            if s in done:
                continue
            for r in range(ch.start[s], ch.start[s + 1]):
                succ = ch.succ[ch.ptr[r]:ch.ptr[r + 1]].tolist()
                if r in allowed and any(t in done for t in succ):
                    sweep[s] = r
                    break
        if not sweep:
            return done
        for s, r in sweep.items():
            rows[s] = r
        done |= set(sweep)


def _late_least_rows(ch, allowed, target, picks):
    """The number of states whose least joining row ``picks[s]`` a
    level-by-level search over ``ch.preds`` meets only after a larger row of
    the same state that enters the same level."""
    pptr, prow, state = ch.preds
    level, seen, late = sorted(target), set(target), 0
    while level:
        met = {}
        for t in level:
            for r in prow[pptr[t]:pptr[t + 1]]:
                if r in allowed and state[r] not in seen:
                    met.setdefault(state[r], r)
        late += sum(r != picks[s] for s, r in met.items())
        seen.update(met)
        level = list(met)
    return late


def test_attractor_matches_the_sweep_reference():
    rng = np.random.default_rng(37)
    late = 0
    for i in range(300):
        n = int(rng.integers(3, 30))
        m = random_ctmdp(rng, num_states=n, max_actions=3, ap=("g", "p"))
        if i % 2:
            m = build_product(m, random_buchi(rng, num_states=2)).ctmdp
            n = m.num_states
        ch = m.choices
        allowed = rng.random(len(ch.state)) < 0.7
        # only the states of a random subset may join, through their rows
        joinable = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        allowed &= np.isin(ch.state, joinable)
        target = np.zeros(n, dtype=bool)
        target[rng.choice(n, int(rng.integers(1, n + 1)), replace=False)] = True
        rows = rng.integers(0, 3, n)
        want, got = rows.copy(), rows.copy()
        allowed_rows = set(np.flatnonzero(allowed).tolist())
        targets = set(np.flatnonzero(target).tolist())
        closure = _sweep_attractor(ch, allowed_rows, targets, want)
        mask = _attractor(ch, allowed, target, got)
        assert np.array_equal(np.flatnonzero(mask), sorted(closure))
        assert np.array_equal(got, want)
        assert np.array_equal(_attractor(ch, allowed, target), mask)
        # nothing reaches an empty target, and no entry of rows changes
        assert not _attractor(ch, allowed, target & False, got).any()
        assert np.array_equal(got, want)
        late += _late_least_rows(ch, allowed_rows, targets, want.tolist())
    # a search that kept the first row it met would fail these joins
    assert late >= 20


def _scan_reference(start, q, rows, tol):
    """The improvement step as a plain scan of every state: a state leaves
    its incumbent only for a score above the best so far by more than its
    tolerance, ``tol`` or ``tol[s]``."""
    new = rows.copy()
    for s in range(len(start) - 1):
        margin = tol[s] if isinstance(tol, np.ndarray) else tol
        best = q[rows[s]]
        for i in range(start[s], start[s + 1]):
            if q[i] > best + margin:
                new[s], best = i, q[i]
    return new


def test_improve_matches_the_sequential_scan():
    rng = np.random.default_rng(43)
    chains = 0
    for i in range(400):
        n = int(rng.integers(1, 12))
        k = rng.integers(1, 5, n)
        s = np.repeat(np.arange(n), k)
        a = np.concatenate([np.arange(j) for j in k])
        ch = ChoiceRows.of_edges(n, s, a, rng.integers(0, n, len(s)),
                                 np.ones(len(s)))
        start = ch.start
        rows = start[:-1] + rng.integers(0, k)
        # exact ties, spread scores and -inf rows, some whole states -inf
        # as psem_optimal sets them on its settled region
        q = np.where(rng.random(len(s)) < 0.5,
                     rng.integers(0, 3, len(s)) / 2, rng.random(len(s)))
        q[rng.random(len(s)) < 0.1] = -np.inf
        q[np.isin(ch.state, rng.permutation(n)[:int(rng.integers(0, 3))])] \
            = -np.inf
        tol = [0.0, 1e-9, 0.05, 0.3][i % 4]
        if i % 3 == 1:
            tol = rng.random(n) * 0.2
        elif i % 3 == 2:
            tol = ctsched.check._TIE_TOL * q[rows]
        # near-tie chains b, b + 1.5 t, b + 2 t from the incumbent: the
        # scan keeps the middle row, where an argmax would take the last
        for t in np.flatnonzero(k >= 3)[:2]:
            margin = tol[t] if isinstance(tol, np.ndarray) else tol
            if np.isfinite(margin) and margin > 0:
                b = rng.random()
                q[start[t]:start[t] + 3] = [b, b + 1.5 * margin, b + 2 * margin]
                q[start[t] + 3:start[t + 1]] = -np.inf
                rows[t] = start[t]
        want = _scan_reference(start, q, rows, tol)
        got = _improve(ch, q, rows, tol)
        assert np.array_equal(got, want)
        assert got is not rows
        argmax = np.array([start[t] + np.argmax(q[start[t]:start[t + 1]])
                           for t in range(n)])
        chains += int(np.count_nonzero((want != rows) & (want != argmax)))
    assert chains >= 20


def test_induced_embedded_matches_the_row_loop():
    # the gather from the choice rows gives the very floats of a per-state
    # loop over the transition table, row s on the successors of s in order
    rng = np.random.default_rng(33)
    for _ in range(50):
        m = random_ctmdp(rng, num_states=int(rng.integers(2, 10)))
        sigma = np.array([int(rng.choice(m.enabled(s)))
                          for s in range(m.num_states)])
        ch = m.choices
        rows = ch.lookup(sigma)
        P, lam = _gather(ch, rows, ch.prob), ch.exit[rows]
        want = np.zeros((m.num_states, m.num_states))
        for s in range(m.num_states):
            succ, rates = m.successors(s, int(sigma[s]))
            assert lam[s] == rates.sum()
            assert np.array_equal(P.col[P.ptr[s]:P.ptr[s + 1]], succ)
            want[s, succ] = rates / rates.sum()
        assert np.array_equal(_dense(P), want)


def test_uniform_chain_matches_the_dense_formula():
    # each system D - P from the builder, with no self-loop entry, is its
    # dense formula: at scale cap I - (P + diag(1 - exit / cap)) of the
    # uniformized chain that holds the self-loop mass, at scale exit I - P
    # of the jump chain, and at scale alpha + exit, extra alpha, the
    # discounted (diag(alpha + exit) - Q) / (alpha + exit), Q the rates.
    # No entry is zero and no column repeats, so the CSR is canonical
    rng = np.random.default_rng(35)
    for i in range(100):
        m = random_ctmdp(rng, num_states=int(rng.integers(2, 12)))
        sigma = np.array([int(rng.choice(m.enabled(s)))
                          for s in range(m.num_states)])
        ch, cap = m.choices, m.max_exit_rate
        if i % 2:
            cap *= 1.5      # no state at the cap: every row has stay > 0
        rows = ch.lookup(sigma)
        loops = _dense(_gather(ch, rows, ch.rate / cap))
        loops[np.diag_indices_from(loops)] += 1.0 - ch.exit[rows] / cap
        lam, alpha = ch.exit[rows], float(rng.uniform(0.1, 2.0))
        rates = _dense(_gather(ch, rows, ch.rate))
        for scale, extra, want in (
                (cap, 0.0, np.eye(m.num_states) - loops),
                (lam, 0.0, np.eye(m.num_states) - _dense(_gather(
                    ch, rows, ch.prob))),
                (alpha + lam, alpha,
                 (np.diag(alpha + lam) - rates) / (alpha + lam)[:, None])):
            P = _induced(ch, rows, scale, extra)
            got = np.diag(P.diag) - _dense(P)
            assert np.allclose(got, want, rtol=0, atol=1e-15)
            assert np.all(P.data > 0)
            for s in range(m.num_states):
                cols = P.col[P.ptr[s]:P.ptr[s + 1]]
                assert len(set(cols.tolist())) == len(cols)
                assert s not in cols


def test_optimizers_name_a_state_without_actions():
    # state 1 has no enabled action; the optimizers need one everywhere
    m = Ctmdp.from_transitions(("s0", "s1"), ("a",), 0, [(0, 0, 1, 1.0)])
    p = ProductCtmdp(m, ((0, 0), (1, 0)), ((0, 0),), frozenset({1}))
    message = r"state 1 \(s1\) has no enabled action"
    with pytest.raises(CtmdpError, match=message):
        discounted_optimal(m, RewardSpec(state_rate=np.ones(2)), 1.0)
    for optimal in (esem_optimal, psem_optimal):
        with pytest.raises(CtmdpError, match=message):
            optimal(p)


def test_psem_optimal_on_a_long_hazard_line(hazard_line, perfbench):
    # 1004 product states, where the maximal chance to dock is strictly
    # between 0 and 1; the reference is an LP over the family's own rates
    p, rates = hazard_line(1000)
    opt = psem_optimal(p)
    want = perfbench("reference").hazard_max_reach(1000, **rates)
    assert 0.0 < want < 1.0
    assert abs(opt.value - want) <= 1e-6
    graded = psem_of(p, opt.schedule).values
    assert np.allclose(graded, opt.values, rtol=0, atol=1e-9)


# Two members of the polling family on which multichain policy iteration
# started from the first actions raised ConvergenceError: the bias grew to
# about 1e15 over the rounds and the switches cycled.
@pytest.mark.parametrize("k, rates", [
    (25, dict(lambda1=1.206574, lambda2=0.792633, mu=3.926556)),
    (30, dict(lambda1=1.2, lambda2=0.8, mu=4.0)),
])
def test_esem_optimal_converges_on_large_polling(polling_family, perfbench,
                                                 k, rates):
    p = polling_family(k, **rates)
    opt = esem_optimal(p)
    want = perfbench("reference").average_reward_lp(p.ctmdp, p.accepting)
    assert abs(opt.value - want) <= 1e-6
    # the polling model is communicating: one gain everywhere
    assert np.ptp(opt.values) <= 1e-9
    graded = esem_of(p, opt.schedule).values
    assert np.allclose(graded, opt.values, rtol=0, atol=1e-9)


def test_esem_optimal_counts_its_rounds(polling_family, perfbench):
    # the start aimed at the accepting states leaves a few rounds of bias
    # improvement at K=20; from the first actions it took 42
    rates = perfbench("families").polling_params(np.random.default_rng(1))
    opt = esem_optimal(polling_family(20, **rates))
    assert 1 <= opt.iterations <= 15


def _lstsq_stationary(P):
    """The least-squares form: every balance equation plus the
    normalization, k + 1 equations in k unknowns."""
    k = P.shape[0]
    A = np.vstack([P.T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _lstsq_gain_bias(P, r):
    """The gain from the stationary distribution, then the bias by least
    squares on (I - P) h = r - g with sum(h) = 0."""
    gain = float(_lstsq_stationary(P) @ r)
    k = len(r)
    A = np.vstack([np.eye(k) - P, np.ones((1, k))])
    h, *_ = np.linalg.lstsq(A, np.concatenate([r - gain, [0.0]]), rcond=None)
    return gain, h


def _irreducible_chains(rng):
    """Random irreducible chains (a random cycle through every state plus
    random extra edges), periodic ones, and near-absorbing ones."""
    yield np.array([[1.0]])
    yield np.array([[0.0, 1.0], [1.0, 0.0]])
    for n in (3, 7, 20):
        yield np.roll(np.eye(n), 1, axis=1)

    def irreducible(n):
        perm = rng.permutation(n)
        P = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 0.5))
        P[perm, np.roll(perm, 1)] += rng.uniform(0.05, 1.0, n)
        return P / P.sum(axis=1, keepdims=True)

    for _ in range(170):
        yield irreducible(int(rng.integers(2, 40)))
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        for _ in range(5):
            P = irreducible(int(rng.integers(2, 30)))
            s = int(rng.integers(len(P)))
            P[s] *= eps
            P[s, s] += 1.0 - eps
            yield P


def _gain_bias(P, r):
    """(g, h) of the irreducible chain P, from ``_recurrent_gain_bias``."""
    g, h, recurrent = _recurrent_gain_bias(_chain(P), r)
    assert recurrent.all()
    return float(g[0]), h


def test_square_solves_match_the_least_squares_reference():
    rng = np.random.default_rng(34)
    count = 0
    for P in _irreducible_chains(rng):
        count += 1
        r = rng.uniform(-1.0, 2.0, len(P))
        g, h = _gain_bias(P, r)
        want_g, want_h = _lstsq_gain_bias(P, r)
        scale = max(1.0, float(np.abs(want_h).max()))
        assert abs(g - want_g) <= 1e-10
        assert np.allclose(h, want_h, rtol=0, atol=1e-10 * scale)
        assert np.allclose(g + h, r + P @ h, rtol=0, atol=1e-10 * scale)
        assert abs(h.sum()) <= 1e-10 * scale
    assert count == 200


def _multichain_chain(rng, n):
    """Random chain of n >= 4 states, renumbered, with one to three bottom
    classes and at least one transient state: each transient state has an
    edge into a class or into a transient state numbered before it."""
    k = int(rng.integers(1, 4))
    sizes = rng.multinomial(n - k - 1, np.ones(k + 1) / (k + 1)) + 1
    P = np.zeros((n, n))
    ends = np.cumsum(sizes)
    for lo, hi in zip(ends[:k] - sizes[:k], ends[:k]):
        idx = np.arange(lo, hi)
        P[np.ix_(idx, idx)] = (rng.random((len(idx), len(idx)))
                               * (rng.random((len(idx), len(idx))) < 0.3))
        P[idx, np.roll(idx, 1)] += rng.uniform(0.05, 1.0, len(idx))
    for s in range(ends[k - 1], n):
        P[s] = rng.random(n) * (rng.random(n) < 0.2)
        P[s, int(rng.integers(0, s))] += rng.uniform(0.05, 1.0)
    P /= P.sum(axis=1, keepdims=True)
    return _renumbered(rng, P, set())[0]


def test_factorization_branches_agree(monkeypatch, hazard_line,
                                     polling_family, perfbench):
    # every system factored both ways, dense LAPACK and SuperLU, by moving
    # the size cutoff: the gain and bias of irreducible chains, of chains
    # with several bottom classes and transient states, hitting
    # probabilities, and the optima of two family members agree with the
    # references and with each other
    def both(solve):
        out = []
        for cutoff in (10**9, 0):
            monkeypatch.setattr("ctsched.check._DENSE_MAX", cutoff)
            out.append(solve())
        return out

    rng = np.random.default_rng(34)
    count = 0
    for P in _irreducible_chains(rng):
        count += 1
        r = rng.uniform(-1.0, 2.0, len(P))
        want_g, want_h = _lstsq_gain_bias(P, r)
        scale = max(1.0, float(np.abs(want_h).max()))
        (gd, hd), (gs, hs) = both(lambda: _gain_bias(P, r))
        for g, h in ((gd, hd), (gs, hs)):
            assert abs(g - want_g) <= 1e-10
            assert np.allclose(h, want_h, rtol=0, atol=1e-10 * scale)
        assert abs(gd - gs) <= 1e-10
        assert np.allclose(hd, hs, rtol=0, atol=1e-10 * scale)
    assert count == 200

    rng = np.random.default_rng(36)
    classes = 0
    for _ in range(100):
        n = int(rng.integers(4, 40))
        P = _multichain_chain(rng, n)
        r = rng.uniform(-1.0, 2.0, n)
        (gd, hd), (gs, hs) = both(lambda: _policy_gain_bias(_chain(P), r))
        scale = max(1.0, float(np.abs(hd).max()))
        for g, h in ((gd, hd), (gs, hs)):
            assert np.allclose(g, P @ g, rtol=0, atol=1e-10)
            assert np.allclose(g + h, r + P @ h, rtol=0, atol=1e-10 * scale)
        assert np.allclose(gd, gs, rtol=0, atol=1e-10)
        assert np.allclose(hd, hs, rtol=0, atol=1e-10 * scale)
        bsccs = _classes(_chain(P))
        for members in bsccs:
            idx = np.array(members)
            want_g, want_h = _lstsq_gain_bias(P[np.ix_(idx, idx)], r[idx])
            assert np.allclose(gd[idx], want_g, rtol=0, atol=1e-10)
            assert np.allclose(hd[idx], want_h, rtol=0, atol=1e-10 * scale)
        assert sum(map(len, bsccs)) < n
        classes += len(bsccs) > 1
        target = set(rng.choice(n, int(rng.integers(1, n)),
                                replace=False).tolist())
        vd, vs = both(lambda: _reach(P, target))
        assert np.allclose(vd, vs, rtol=0, atol=1e-12)
    assert classes >= 50

    # a closed class outside the fixed states makes I - P[t,t] singular
    P = _chain(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.3, 0.7]]))
    for cutoff in (10**9, 0):
        monkeypatch.setattr("ctsched.check._DENSE_MAX", cutoff)
        with pytest.raises(np.linalg.LinAlgError):
            _absorption(P, np.zeros(3, dtype=bool))

    # family members: the hazard line's absorption systems and the polling
    # grid's pinned gain/bias systems give the same optima both ways
    rates = perfbench("families").polling_params(np.random.default_rng(1))
    for p in (hazard_line(200)[0], polling_family(20, **rates)):
        for optimal in (esem_optimal, psem_optimal):
            dense, sparse = both(lambda: optimal(p))
            assert dense.schedule == sparse.schedule
            assert abs(dense.value - sparse.value) <= 1e-12 * abs(dense.value)
            scale = 1e-12 * float(np.abs(dense.values).max())
            assert np.allclose(dense.values, sparse.values, rtol=0, atol=scale)
    p = hazard_line(200)[0]
    schedule = esem_optimal(p).schedule
    dense, sparse = both(lambda: esem_of(p, schedule))
    assert abs(dense.value - sparse.value) <= 1e-12 * abs(dense.value)


def test_factor_hands_superlu_a_canonical_csc_and_branches_on_k(
        monkeypatch, hazard_line, polling_family, perfbench):
    # each system goes to LAPACK with at most _DENSE_MAX unknowns and to
    # SuperLU above, whatever the size of its chain; the CSC that SuperLU
    # gets is canonical and equals the dense branch's k x k matrix
    check = ctsched.check
    handed = []
    splu, dgetrf = check.splu, check.dgetrf
    # copies: splu sorts a CSC's indices in place
    monkeypatch.setattr(check, "splu",
                        lambda A: handed.append(("sparse", A.copy()))
                        or splu(A))
    monkeypatch.setattr(check, "dgetrf",
                        lambda A: handed.append(("dense", A.copy()))
                        or dgetrf(A))
    factor, systems = check._factor, []

    def record(P, t, f, classes=None):
        systems.append((P, t, f, classes))
        return factor(P, t, f, classes)

    monkeypatch.setattr(check, "_factor", record)
    rates = perfbench("families").polling_params(np.random.default_rng(1))
    hazard = hazard_line(200)[0]
    esem_optimal(hazard)
    psem_optimal(hazard)
    esem_optimal(polling_family(20, **rates))
    rng = np.random.default_rng(26)
    for _ in range(3):
        p = random_marked_product(rng, num_states=6)
        brute_force_psem(p)
        brute_force_esem(p)
    assert len(handed) == len(systems)
    sizes = [(len(P.ptr) - 1, len(t), branch)
             for (P, t, _, _), (branch, _) in zip(systems, handed)]
    assert all((branch == "dense") == (k <= check._DENSE_MAX)
               for _, k, branch in sizes)
    assert (204, 202, "sparse") in sizes
    assert any(k <= 128 and n > 512 and k * n > 256**2 and branch == "dense"
               for n, k, branch in sizes)

    for P, t, f, classes in systems:
        handed.clear()
        for cutoff in (0, 10**9):
            monkeypatch.setattr(check, "_DENSE_MAX", cutoff)
            factor(P, t, f, classes)
        (_, csc), (_, dense) = handed
        assert csc.format == "csc" and csc.shape == dense.shape
        ptr, rows = csc.indptr, csc.indices
        assert ptr[0] == 0 and ptr[-1] == len(rows) == len(csc.data)
        assert all((np.diff(rows[lo:hi]) > 0).all()
                   for lo, hi in zip(ptr[:-1], ptr[1:]))
        assert np.array_equal(csc.toarray(), dense)


def test_esem_optimal_on_polling_above_the_dense_cutoff(polling_family,
                                                        perfbench):
    # 1683 product states: every round's gain/bias solve is sparse
    rates = perfbench("families").polling_params(np.random.default_rng(1))
    p = polling_family(40, **rates)
    assert p.num_states == 1683 > ctsched.check._DENSE_MAX
    opt = esem_optimal(p)
    want = perfbench("reference").average_reward_lp(p.ctmdp, p.accepting)
    assert abs(opt.value - want) <= 1e-6
    graded = esem_of(p, opt.schedule).values
    assert np.allclose(graded, opt.values, rtol=0, atol=1e-9)


def test_psem_optimal_on_a_hazard_line_above_the_dense_cutoff(hazard_line,
                                                              perfbench,
                                                              monkeypatch):
    # 3004 product states: every round's absorption solve is sparse
    p, rates = hazard_line(3000)
    assert p.num_states == 3004
    opt = psem_optimal(p)
    want = perfbench("reference").hazard_max_reach(3000, **rates)
    assert abs(opt.value - want) <= 1e-6
    graded = psem_of(p, opt.schedule).values
    assert np.allclose(graded, opt.values, rtol=0, atol=1e-9)
    # the value is near 4e-5, so an absolute tie tolerance of 1e-9 would
    # stop one round early, 7e-7 below the optimum in relative terms
    monkeypatch.setattr("ctsched.check._TIE_TOL", 1e-15)
    fine = psem_optimal(p)
    assert abs(opt.value - fine.value) <= 1e-12 * fine.value
    assert opt.iterations == fine.iterations == 2


def test_convergence_error_names_solver_stage_and_round(
        riskreward, hazard_line, monkeypatch):
    # each of these needs a second round to confirm its first switch
    _, _, p = riskreward
    monkeypatch.setattr("ctsched.check._MAX_ROUNDS", 1)
    with pytest.raises(ConvergenceError, match=(
            r"^average-reward \((gain|bias) stage\) policy iteration did not "
            r"converge: stopped at round 1 with [1-9]\d* states switched in "
            r"the last round$")):
        esem_optimal(p)
    with pytest.raises(ConvergenceError, match=(
            r"^reachability policy iteration did not converge: stopped at "
            r"round 1 with [1-9]\d* states switched")):
        psem_optimal(hazard_line(10)[0])
    spec = accepting_rate_spec(p.num_states, p.accepting)
    with pytest.raises(ConvergenceError, match=(
            r"^discounted policy iteration did not converge: stopped at "
            r"round 1 with [1-9]\d* states switched")):
        discounted_optimal(p.ctmdp, spec, 0.1)


def test_grading_reproduces_the_optimum(riskreward, mars, polling_family,
                                        hazard_line, perfbench):
    # each grader is the evaluation step its optimizer runs on the rows of
    # the returned schedule, so the values agree bit for bit
    rates = perfbench("families").polling_params(np.random.default_rng(1))
    for p in (riskreward[2], mars[2], polling_family(20, **rates),
              hazard_line(200)[0]):
        opt = esem_optimal(p)
        assert np.array_equal(esem_of(p, opt.schedule).values, opt.values)
        opt = psem_optimal(p)
        assert np.array_equal(psem_of(p, opt.schedule).values, opt.values)
    rng = np.random.default_rng(48)
    for _ in range(50):
        m = random_ctmdp(rng, num_states=int(rng.integers(2, 9)))
        spec = random_reward_spec(rng, m)
        g, sigma = average_optimal(m, spec)
        assert np.array_equal(average_value(m, spec, sigma), g)
        alpha = float(rng.uniform(0.1, 2.0))
        v, sigma = discounted_optimal(m, spec, alpha)
        assert np.array_equal(discounted_value(m, spec, sigma, alpha), v)


def _two_d(call):
    """Whether a call allocates a dense 2-D array."""
    func = ast.unparse(call.func)
    shape = call.args[0] if call.args else None
    return (func.endswith(("_like", ".toarray", ".todense"))
            or func in ("np.eye", "np.identity")
            or (func in ("np.zeros", "np.ones", "np.empty", "np.full")
                and (isinstance(shape, ast.Tuple)
                     or (isinstance(shape, ast.Attribute)
                         and shape.attr == "shape"))))


def _calls_by_function(tree):
    """{top-level name: the calls inside it}."""
    out = {}
    for node in tree.body:
        name = getattr(node, "name", "<module>")
        out[name] = [call for call in ast.walk(node)
                     if isinstance(call, ast.Call)]
    return out


def test_checker_solves_and_builds_chains_in_one_place_each():
    # one helper factors every system, and a dense 2-D array exists only in
    # its branches for systems and blocks under the size cutoff; chains are
    # CSR everywhere else
    tree = ast.parse(Path(ctsched.check.__file__).read_text())
    calls = _calls_by_function(tree)
    solvers = {"np.linalg.solve", "np.linalg.lstsq", "np.linalg.inv",
               "lu_factor", "lu_solve", "dgetrf", "dgetrs", "splu",
               "spsolve", "factorized", "np.eye", "np.identity"}
    solving = {name for name, found in calls.items()
               if any(ast.unparse(call.func) in solvers for call in found)}
    assert solving == {"_factor"}
    building = {name for name, found in calls.items()
                if any(_two_d(call) for call in found)}
    assert building == {"_factor"}
    factor = next(node for node in tree.body
                  if getattr(node, "name", None) == "_factor")
    dense = {id(call) for branch in ast.walk(factor)
             if isinstance(branch, ast.If)
             and "_DENSE_MAX" in ast.unparse(branch.test)
             for stmt in branch.body for call in ast.walk(stmt)}
    assert all(id(call) in dense for call in calls["_factor"]
               if _two_d(call))
    # one builder gathers every induced system, and _factor assembles each
    # system once: its dense matrix is the square k x k system itself, with
    # no k x n block beside it and no matrix product
    gathering = {name for name, found in calls.items()
                 if any(ast.unparse(call.func) == "_gather" for call in found)}
    assert gathering == {"_induced"}
    assert {ast.unparse(call.args[0]) for call in calls["_factor"]
            if _two_d(call)} == {"(k, k)"}
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(factor))


def test_checker_searches_backward_in_one_place():
    # _attractor is the one backward search: nothing else in the checker
    # reads the predecessor index, and no heap replays an older sweep
    tree = ast.parse(Path(ctsched.check.__file__).read_text())
    reading = {getattr(node, "name", "<module>") for node in tree.body
               if any(isinstance(x, ast.Attribute) and x.attr == "preds"
                      for x in ast.walk(node))}
    assert reading == {"_attractor"}
    imported = {name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in [getattr(node, "module", None)]
                + [alias.name for alias in node.names]}
    assert "heapq" not in imported


def _defs(body, prefix=""):
    """(qualified name, node) of every function and method in ``body``."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _defs(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node


def test_end_components_are_decomposed_in_one_place():
    # the cached masks of ChoiceRows.mec are the one decomposition: the
    # checker reads them without the Mec view or (state, action) lookups,
    # and nothing else in the model searches for strong components
    tree = ast.parse(Path(ctsched.check.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"mec_decompose", "Mec", "MecSet"}
    psem = dict(_defs(tree.body))["psem_optimal"]
    assert not any(isinstance(x, ast.Attribute) and x.attr == "row"
                   for x in ast.walk(psem))
    tree = ast.parse(Path(ctsched.model.__file__).read_text())
    searching = {name for name, node in _defs(tree.body)
                 if any(isinstance(x, ast.Call)
                        and ast.unparse(x.func) == "connected_components"
                        for x in ast.walk(node))}
    assert searching == {"ChoiceRows.mec"}
