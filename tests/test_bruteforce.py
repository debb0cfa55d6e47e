"""Brute-force oracles: the one solve on the union of every schedule's chain
agrees with grading the schedules one at a time."""
import itertools
from dataclasses import replace

import numpy as np
import pytest

import ctsched.bruteforce
import ctsched.check

from ctsched.bruteforce import (_gate, _space, _union_gains,
                                brute_force_average, brute_force_discounted,
                                brute_force_esem, brute_force_mec_pairs,
                                brute_force_psem, count_schedules,
                                random_buchi, random_ctmdp,
                                random_marked_product, random_reward_spec)
from ctsched.check import (RewardSpec, _bsccs, _discount_rows, _discounted,
                           _gather, _psem, average_value, discounted_value,
                           esem_of, psem_of)
from ctsched.model import Ctmdp, CtmdpError
from ctsched.product import (TRAP_PAIR, ProductCtmdp, augment, build_product,
                             schedule_from_ids, schedule_to_ids)


def _schedules(m):
    """Every pure schedule, one at a time, in ``itertools.product`` order."""
    return [np.array(c, dtype=np.int64) for c in itertools.product(
        *(m.enabled(s) for s in range(m.num_states)))]


def _first_best(values):
    """Index of the first value above every earlier pick by more than 1e-12."""
    pick = 0
    for b, v in enumerate(values):
        if v > values[pick] + 1e-12:
            pick = b
    return pick


def _products():
    """Random marked products, and model x automaton products, where guards
    that match no letter leave traps, plain and augmented with a sink."""
    rng = np.random.default_rng(83)
    for _ in range(12):
        yield random_marked_product(rng, num_states=int(rng.integers(3, 9)),
                                    max_schedules=150)
    traps = 0
    for _ in range(25):
        m = random_ctmdp(rng, num_states=int(rng.integers(2, 5)),
                         max_actions=2, ap=("g", "p"))
        p = build_product(m, random_buchi(rng, num_states=2))
        traps += TRAP_PAIR in p.pairs
        for prod in (p, augment(p, 0.9)):
            try:
                _gate(prod.ctmdp)
            except CtmdpError:
                continue
            if count_schedules(prod.ctmdp) <= 256:
                yield prod
    assert traps >= 5


def test_oracles_match_grading_each_schedule():
    rng = np.random.default_rng(89)
    count = 0
    for p in _products():
        count += 1
        m, ch = p.ctmdp, p.ctmdp.choices
        sigmas = _schedules(m)
        n, B = m.num_states, len(sigmas)
        rows, U = _space(m)
        assert np.array_equal(ch.action[rows].reshape(B, n), sigmas)

        # each copy of the union against the grader of its schedule
        scheds = [schedule_from_ids(p, sigma) for sigma in sigmas]
        want_psem = np.array([psem_of(p, s).values for s in scheds])
        accepting = np.zeros(n, dtype=bool)
        accepting[list(p.accepting)] = True
        got = _psem(U, U.state, np.tile(accepting, B)).reshape(B, n)
        assert np.allclose(got, want_psem, rtol=0, atol=1e-12)
        want_esem = np.array([esem_of(p, s).values for s in scheds])
        spec = RewardSpec(state_rate=accepting.astype(float))
        assert np.allclose(_union_gains(m, spec)[1].reshape(B, n), want_esem,
                           rtol=0, atol=1e-12)

        spec = random_reward_spec(rng, m)
        alpha = float(rng.uniform(0.1, 2.0))
        want_avg = np.array([average_value(m, spec, x) for x in sigmas])
        assert np.allclose(_union_gains(m, spec)[1].reshape(B, n), want_avg,
                           rtol=0, atol=1e-12)
        want_disc = np.array([discounted_value(m, spec, x, alpha)
                              for x in sigmas])
        base, _ = _discount_rows(m, spec, alpha)
        got = _discounted(U, U.state, base[rows], alpha)
        assert np.allclose(got.reshape(B, n), want_disc, rtol=0, atol=1e-12)

        # the oracles return what the one-at-a-time rule returns
        for oracle, want in ((brute_force_psem, want_psem),
                             (brute_force_esem, want_esem)):
            value, sched = oracle(p)
            b = _first_best(want[:, m.initial].tolist())
            assert abs(value - want[b, m.initial]) <= 1e-12
            assert np.array_equal(schedule_to_ids(p, sched), sigmas[b])
        gains, sigma = brute_force_average(m, spec)
        assert np.allclose(gains, want_avg.max(axis=0), rtol=0, atol=1e-12)
        assert np.array_equal(
            sigma, sigmas[_first_best(want_avg[:, m.initial].tolist())])
        assert np.allclose(brute_force_discounted(m, spec, alpha),
                           want_disc.max(axis=0), rtol=0, atol=1e-12)
        pairs = set()
        for sigma in sigmas:
            members, _ = _bsccs(_gather(ch, ch.lookup(sigma), ch.prob))
            pairs.update((s, int(sigma[s])) for s in members.tolist())
        assert brute_force_mec_pairs(m) == pairs
    assert count >= 30


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_brute_force_call_is_one_solve(monkeypatch):
    # one strong-component search and a fixed number of factorizations per
    # oracle call, whatever the number of schedules
    bsccs = _counting(monkeypatch, ctsched.check, "_bsccs")
    factors = _counting(monkeypatch, ctsched.check, "_factor")
    monkeypatch.setattr(ctsched.bruteforce, "_bsccs", ctsched.check._bsccs)
    rng = np.random.default_rng(97)
    sizes = set()
    for n in (2, 4, 6, 8):
        p = random_marked_product(rng, num_states=n)
        m = p.ctmdp
        spec = random_reward_spec(rng, m)
        sizes.add(count_schedules(m))
        for call, searches, most in (
                (lambda: brute_force_psem(p), 1, 1),
                (lambda: brute_force_esem(p), 1, 2),
                (lambda: brute_force_average(m, spec), 1, 2),
                (lambda: brute_force_discounted(m, spec, 0.5), 0, 1),
                (lambda: brute_force_mec_pairs(m), 1, 0)):
            bsccs.clear()
            factors.clear()
            call()
            assert len(bsccs) == searches
            assert len(factors) <= most
    assert len(sizes) == 4 and max(sizes) > 100


def test_union_exit_rates_are_the_model_rows_exit_rates():
    # the union takes its exit rates from the model's rows; they are the
    # very bytes that summing the union's own rows gives
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = random_ctmdp(rng, int(rng.integers(1, 9)), rate_lo=1e-3,
                         rate_hi=1e3, max_schedules=500)
        _, U = _space(m)
        assert U.exit.tobytes() == replace(U).exit.tobytes()


def test_brute_force_names_a_state_without_actions():
    m = Ctmdp.from_transitions(("s0", "s1"), ("a",), 0, [(0, 0, 1, 1.0)])
    p = ProductCtmdp(m, ((0, 0), (1, 0)), ((0, 0),), frozenset({1}))
    spec = RewardSpec(state_rate=np.ones(2))
    message = r"state 1 \(s1\) has no enabled action"
    for call in (lambda: brute_force_psem(p), lambda: brute_force_esem(p),
                 lambda: brute_force_average(m, spec),
                 lambda: brute_force_discounted(m, spec, 1.0),
                 lambda: brute_force_mec_pairs(m)):
        with pytest.raises(CtmdpError, match=message):
            call()
