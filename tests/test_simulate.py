"""Trajectory sampling: rng streams, dwell times, the successor race."""
import numpy as np
import pytest

from ctsched.model import ActionNotEnabled, Ctmdp
from ctsched.simulate import (RngHandle, make_rngs, sample_dwell,
                              sample_transition)


def chain():
    return Ctmdp.from_transitions(
        ("s0", "s1"), ("a", "b"), 0,
        [(0, 0, 0, 1.0), (0, 0, 1, 3.0), (0, 1, 1, 6.0), (1, 0, 0, 2.0)])


def test_rng_streams_are_reproducible_and_distinct():
    a1 = [RngHandle(42, "trajectory").uniform() for _ in range(1)][0]
    a2 = RngHandle(42, "trajectory").uniform()
    assert a1 == a2
    draws = {name: RngHandle(42, name).uniform()
             for name in ("trajectory", "coin", "exploration")}
    assert len(set(draws.values())) == 3
    assert RngHandle(43, "trajectory").uniform() != a1


def test_rng_unknown_stream():
    with pytest.raises(ValueError):
        RngHandle(0, "weather")


def test_rng_rejects_a_seed_outside_32_bits():
    # the seed fills the upper half of a 64-bit key: 2**32 would wrap to 0
    for seed in (-1, 2**32, 2**32 + 5):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\), got "):
            RngHandle(seed, "trajectory")
    assert RngHandle(2**32 - 1).uniform() != RngHandle(0).uniform()


def test_rng_integers_range():
    rng = RngHandle(1, "exploration")
    picks = [rng.integers(3) for _ in range(1000)]
    assert set(picks) == {0, 1, 2}


def test_make_rngs_covers_all_streams():
    rngs = make_rngs(5)
    assert set(rngs) == {"trajectory", "coin", "exploration"}


def test_sample_dwell_matches_exponential_mean():
    rng = RngHandle(3, "trajectory")
    lam = 2.5
    xs = np.array([sample_dwell(lam, rng) for _ in range(50000)])
    assert xs.mean() == pytest.approx(1 / lam, rel=0.02)
    assert np.all(xs >= 0)


def test_sample_transition_frequencies():
    m = chain()
    rng = RngHandle(11, "trajectory")
    n = 40000
    hits = {0: 0, 1: 0}
    for _ in range(n):
        t, dwell = sample_transition(m, 0, 0, rng)
        hits[t] += 1
        assert dwell > 0
    # rates 1 : 3 over exit rate 4
    assert hits[0] / n == pytest.approx(0.25, abs=0.01)
    assert hits[1] / n == pytest.approx(0.75, abs=0.01)


def test_sample_transition_rejects_disabled_action():
    with pytest.raises(ActionNotEnabled):
        sample_transition(chain(), 1, 1, RngHandle(0, "trajectory"))


def test_same_seed_same_trajectory():
    m = chain()

    def roll():
        rng = RngHandle(17, "trajectory")
        s, steps = 0, []
        for _ in range(50):
            t, dwell = sample_transition(m, s, 0, rng)
            steps.append((s, t, dwell))
            s = t
        return steps

    assert roll() == roll()


def test_uniform_draws_are_the_philox_stream():
    # 20000 draws cross two refills of the 8192-double buffer
    rng = RngHandle(7, "trajectory")
    draws = [rng.uniform() for _ in range(20000)]
    assert all(type(u) is float for u in draws)
    want = np.random.Generator(
        np.random.Philox(key=(7 << 32) + 0x74726a)).random(20000)
    assert draws == want.tolist()


def test_integers_scale_the_uniform_stream():
    rng = RngHandle(5, "exploration")
    picks = [rng.integers(6) for _ in range(16)]
    assert picks == [3, 1, 3, 1, 5, 0, 1, 0, 1, 3, 4, 2, 0, 2, 4, 3]
    assert all(type(k) is int for k in picks)
    us = np.random.Generator(
        np.random.Philox(key=(5 << 32) + 0x657870)).random(16)
    assert picks == [min(int(u * 6), 5) for u in us.tolist()]
