"""End-to-end acceptance checks.

Each test covers one release criterion, prints a single PASS/FAIL line with
the measured numbers, and asserts the stated tolerance.  Timing budgets are
measured per learning run; distributional and randomized checks use fixed
seeds so the suite is reproducible.
"""
import time
from bisect import bisect_right

import numpy as np
import pytest
from scipy import stats
from scipy.sparse import csr_matrix

from ctsched.bruteforce import (brute_force_esem, brute_force_psem,
                                random_ctmdp, random_marked_product,
                                random_reward_spec)
from ctsched.check import (Chain, _bsccs, _gather, _policy_gain_bias,
                           accepting_rate_spec, alpha_from_gamma,
                           average_optimal, average_value,
                           discounted_optimal, discounted_value, esem_of,
                           esem_optimal, psem_of, psem_optimal,
                           step_reward_spec, uniformized_reward_spec)
from ctsched.learn import learn_exp, learn_sat
from ctsched.model import uniformize
from ctsched.product import (augment, project_schedule, schedule_from_ids,
                             schedule_to_ids)
from ctsched.simulate import RngHandle, race, sample_transition

RUN_BUDGET_S = 60.0


def _report(tag: str, ok: bool, detail: str):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def test_criterion_1_riskreward_satisfaction(riskreward):
    m, a, p = riskreward
    exact = psem_optimal(p).value
    graded, times = [], []
    for seed in range(3):
        t0 = time.perf_counter()
        res = learn_sat(m, a, seed=seed)
        times.append(time.perf_counter() - t0)
        graded.append(psem_of(p, res.schedule).value)
    hits = sum(abs(v - 1.0) <= 1e-9 for v in graded)
    ok = (p.num_states == 8
          and abs(exact - 1.0) <= 1e-6
          and hits >= 2
          and max(times) <= RUN_BUDGET_S)
    _report("criterion 1 (riskreward satisfaction)", ok,
            f"product={p.num_states}, exact={exact:.6g}, "
            f"learned 1.0 in {hits}/3 runs, max {max(times):.1f}s")


def test_criterion_2_riskreward_expectation(riskreward):
    m, a, p = riskreward
    exact = esem_optimal(p).value
    graded, times = [], []
    for seed in range(3):
        t0 = time.perf_counter()
        res = learn_exp(m, a, seed=seed)
        times.append(time.perf_counter() - t0)
        graded.append(esem_of(p, res.schedule).value)
    hits = sum(abs(v - 0.9) <= 0.01 for v in graded)
    ok = (abs(exact - 0.9) <= 1e-6
          and hits >= 2
          and max(times) <= RUN_BUDGET_S)
    _report("criterion 2 (riskreward expectation)", ok,
            f"exact={exact:.6g}, graded={[round(v, 4) for v in graded]}, "
            f"{hits}/3 within 0.01, max {max(times):.1f}s")


def test_criterion_3_mars_example(mars):
    m, a, p = mars
    sat = psem_optimal(p)
    proj = project_schedule(p, sat.schedule)
    b_id = m.action_names.index("b")
    zone0 = m.state_names.index("z=0")
    plays_b = any(s == zone0 and act == b_id for (s, q), act in proj.items())
    exp = esem_optimal(p)
    act, _ = exp.schedule[(m.initial, a.initial)]
    ok = (abs(sat.value - 1.0) <= 1e-9
          and not plays_b
          and m.action_names[act] == "b")
    _report("criterion 3 (mars example)", ok,
            f"psem={sat.value:.6g} avoiding b at zone 0, "
            f"esem={exp.value:.6g} starts with {m.action_names[act]}")


def test_criterion_4_sink_reduction_oracle():
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    worst = 0.0
    bf_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        p = random_marked_product(rng, num_states=n, max_actions=3,
                                  max_schedules=2000)
        opt = psem_optimal(p)
        bf_val, _ = brute_force_psem(p)
        bf_gap = max(bf_gap, abs(opt.value - bf_val))
        aug = augment(p, 0.99)
        spec = accepting_rate_spec(aug.num_states, aug.accepting)
        _, sigma = average_optimal(aug.ctmdp, spec)
        sched = schedule_from_ids(p, sigma[:p.num_states])
        worst = max(worst, opt.value - psem_of(p, sched).value)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01 and bf_gap <= 1e-9 and elapsed <= 300
    _report("criterion 4 (sink reduction vs oracle, 100 products)", ok,
            f"worst gap={worst:.2e}, brute-force gap={bf_gap:.2e}, "
            f"{elapsed:.1f}s")


def _chain(P):
    """The checker's CSR form of a dense stochastic matrix: no self-loop
    entry, and 1 - P[s, s] on D, so its systems are those of I - P."""
    loops = np.diag(P)
    A = csr_matrix(P - np.diag(loops))
    return Chain(A.indptr.astype(np.int64), A.indices.astype(np.int64), A.data,
                 1.0 - loops)


def _dense(P):
    n = len(P.ptr) - 1
    return csr_matrix((P.data, P.col, P.ptr), shape=(n, n)).toarray()


def _simulated_time_fraction(P, lam, accepting, start, steps, rng):
    """One long trajectory: jump chain step by step, dwells drawn per state.

    The total dwell accumulated over k visits of a state is a sum of k iid
    exponentials, i.e. Gamma(k) scaled by 1/lam, so it can be drawn in one
    shot per state after the jump path is known.
    """
    n = len(lam)
    cums = [list(np.cumsum(P[s])) for s in range(n)]
    visits = np.zeros(n, dtype=np.int64)
    u = rng.random(steps)
    s = start
    for i in range(steps):
        visits[s] += 1
        s = min(bisect_right(cums[s], u[i]), n - 1)
    total = np.array([rng.gamma(k) / lam[j] if k else 0.0
                      for j, k in enumerate(visits)])
    acc_time = sum(total[j] for j in accepting)
    return float(acc_time / total.sum())


def test_criterion_5_expectation_identity_and_monte_carlo():
    rng = np.random.default_rng(777)
    t0 = time.perf_counter()
    worst_mc = 0.0
    for _ in range(20):
        # resample until the induced chain has a unique bottom SCC, so one
        # long run converges to the expected long-run fraction
        while True:
            p = random_marked_product(rng, num_states=int(rng.integers(3, 8)))
            sigma = np.array([int(rng.choice(p.ctmdp.enabled(s)))
                              for s in range(p.num_states)])
            ch = p.ctmdp.choices
            rows = ch.lookup(sigma)
            P, lam = _gather(ch, rows, ch.prob), ch.exit[rows]
            if len(_bsccs(P)[1]) == 1:
                break
        P = _dense(P)
        sched = schedule_from_ids(p, sigma)
        spec = accepting_rate_spec(p.num_states, p.accepting)
        exact = esem_of(p, sched)
        direct = average_value(p.ctmdp, spec, schedule_to_ids(p, sched))
        # same code path: the arrays must be identical bit for bit
        assert np.array_equal(exact.values, direct)
        mc = _simulated_time_fraction(P, lam, p.accepting, p.ctmdp.initial,
                                      10**6, rng)
        worst_mc = max(worst_mc, abs(mc - exact.value))
    elapsed = time.perf_counter() - t0
    ok = worst_mc <= 0.01
    _report("criterion 5 (expectation identity + Monte Carlo, 20 pairs)", ok,
            f"bit-identical values, worst MC gap={worst_mc:.4f}, "
            f"{elapsed:.1f}s")


def _renewal_gains(P, lam, rate):
    """Long-run reward per unit time of the chain with embedded matrix P and
    exit rates lam that pays ``rate`` per unit time, without uniformizing:
    in each bottom class the renewal-reward ratio sum(pi rate / lam) /
    sum(pi / lam) over the embedded stationary distribution pi (the balance
    equations with the last one replaced by sum(pi) = 1), elsewhere the
    harmonic extension g = P g."""
    n = len(lam)
    g = np.zeros(n)
    recurrent = np.zeros(n, dtype=bool)
    members, sizes = _bsccs(_chain(P))
    for idx in np.split(members, np.cumsum(sizes)[:-1]):
        A = P[np.ix_(idx, idx)].T - np.eye(len(idx))
        A[-1] = 1.0
        pi = np.linalg.solve(A, np.eye(len(idx))[-1])
        g[idx] = (pi @ (rate[idx] / lam[idx])) / (pi @ (1.0 / lam[idx]))
        recurrent[idx] = True
    t, f = np.flatnonzero(~recurrent), np.flatnonzero(recurrent)
    if len(t):
        g[t] = np.linalg.solve(np.eye(len(t)) - P[np.ix_(t, t)],
                               P[np.ix_(t, f)] @ g[f])
    return g


def test_criterion_6_blackwell_and_uniformization():
    rng = np.random.default_rng(424242)
    worst_gain = 0.0
    worst_eq8 = 0.0
    worst_eq10 = 0.0
    for _ in range(20):
        m = random_ctmdp(rng, num_states=int(rng.integers(3, 8)))
        spec = random_reward_spec(rng, m)
        cap = m.max_exit_rate
        alpha = alpha_from_gamma(0.9999, cap)
        _, sigma_d = discounted_optimal(m, spec, alpha)
        g_opt, _ = average_optimal(m, spec)
        g_d = average_value(m, spec, sigma_d)
        worst_gain = max(worst_gain, float(np.max(np.abs(g_d - g_opt))))

        sigma = np.array([int(rng.choice(m.enabled(s)))
                          for s in range(m.num_states)])
        v1 = discounted_value(m, spec, sigma, alpha)
        v2 = discounted_value(uniformize(m),
                              uniformized_reward_spec(m, spec, alpha, cap),
                              sigma, alpha)
        scale8 = max(1.0, float(np.max(np.abs(v1))))
        worst_eq8 = max(worst_eq8, float(np.max(np.abs(v1 - v2))) / scale8)

        r_step = step_reward_spec(m, spec, cap)
        ch = m.choices
        rows = ch.lookup(sigma)
        P, lam = _dense(_gather(ch, rows, ch.prob)), ch.exit[rows]
        PC = (lam / cap)[:, None] * P
        PC[np.diag_indices_from(PC)] += 1.0 - lam / cap
        r = np.array([r_step[(s, int(sigma[s]))] for s in range(m.num_states)])
        g_step, _ = _policy_gain_bias(_chain(PC), r)
        act = np.array([spec.action_reward.get((s, int(sigma[s])), 0.0)
                        for s in range(m.num_states)])
        g_time = _renewal_gains(P, lam, spec.state_rate + lam * act)
        scale10 = max(1.0, float(np.max(np.abs(g_time))))
        worst_eq10 = max(worst_eq10,
                         float(np.max(np.abs(cap * g_step - g_time))) / scale10)
    ok = worst_gain <= 1e-6 and worst_eq8 <= 1e-8 and worst_eq10 <= 1e-8
    _report("criterion 6 (Blackwell + uniformization, 20 models)", ok,
            f"gain gap={worst_gain:.2e}, transition-reward identity "
            f"{worst_eq8:.2e}, step-reward identity {worst_eq10:.2e}")


def test_criterion_7_distributional_checks(riskreward):
    m, _, _ = riskreward
    lam = 2.0
    n = 10**4
    rng = RngHandle(101, "trajectory")
    dwells = np.array([race((0,), [lam], rng)[1] for _ in range(n)])
    ks = stats.kstest(dwells, "expon", args=(0, 1 / lam))

    # successor frequencies of the riskreward race (rates 9 : 1)
    s0 = m.state_names.index("z=0")
    b = m.action_names.index("b")
    succ, rates = m.successors(s0, b)
    counts = np.zeros(len(succ))
    disc_sum = 0.0
    alpha = 0.2
    rng2 = RngHandle(202, "trajectory")
    for _ in range(n):
        t, dwell = sample_transition(m, s0, b, rng2)
        counts[list(succ).index(t)] += 1
        disc_sum += np.exp(-alpha * dwell)
    expected = n * rates / rates.sum()
    chi2 = stats.chisquare(counts, expected)

    lam_b = float(rates.sum())
    want = lam_b / (lam_b + alpha)
    disc_err = abs(disc_sum / n - want) / want

    ok = ks.pvalue >= 0.01 and chi2.pvalue >= 0.01 and disc_err <= 0.01
    _report("criterion 7 (distributional checks)", ok,
            f"KS p={ks.pvalue:.3f}, chi2 p={chi2.pvalue:.3f}, "
            f"discount mean off by {disc_err:.2%}")


def test_criterion_8_polling_substitute(polling):
    # the large qcomp-scale benchmarks are intentionally not reproduced; the
    # bundled two-station polling model stands in, accepted by oracle
    # equivalence rather than timing columns
    m, a, p = polling
    sat = psem_optimal(p)
    bf_sat, _ = brute_force_psem(p)
    exp = esem_optimal(p)
    bf_exp, _ = brute_force_esem(p)
    ok = (abs(sat.value - bf_sat) <= 1e-9
          and abs(exp.value - bf_exp) <= 1e-9)
    _report("criterion 8 (polling substitute, oracle equivalence)", ok,
            f"psem={sat.value:.6g} (oracle {bf_sat:.6g}), "
            f"esem={exp.value:.6g} (oracle {bf_exp:.6g})")
