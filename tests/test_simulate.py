"""Trajectory sampling: rng streams, dwell times, the successor race."""
import ast
import math
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ctsched
from ctsched.model import ActionNotEnabled, Ctmdp
from ctsched.simulate import RngHandle, make_rngs, race, sample_transition


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


def test_rng_rejects_a_seed_that_is_not_an_integer():
    # 1.5 would read the stream of seed 1
    for seed in (1.5, 1.0, "1", None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            RngHandle(seed, "trajectory")
    with pytest.raises(ValueError, match="seed must be an integer"):
        make_rngs(1.5)
    assert RngHandle(np.int64(7)).uniform() == RngHandle(7).uniform()


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
    xs = np.array([race((0,), [lam], rng)[1] for _ in range(50000)])
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


def test_mixed_draws_read_one_philox_sequence():
    # uniform() and integers() interleaved across two refills of the
    # 8192-double buffer read the stream in order, one double per draw
    rng = RngHandle(9, "coin")
    want = np.random.Generator(
        np.random.Philox(key=(9 << 32) + 0x636f696e)).random(20000).tolist()
    got = []
    for j in range(20000):
        if j % 3 == 1:
            k = rng.integers(7)
            assert k == min(int(want[j] * 7), 6)
            got.append(want[j])
        else:
            got.append(rng.uniform())
    assert got == want


class _Stub:
    """A stream that returns the given draws in order."""

    def __init__(self, *draws):
        self.uniform = iter(draws).__next__


def test_race_clamps_a_subnormal_exit_rate():
    # u * lam < lam for every u < 1 and normal lam; a subnormal total rate
    # rounds u * lam up to lam, past the last slot, which picks the last
    u = 1.0 - 2.0**-53
    cum = [1e-310, 2e-310]
    assert u * cum[-1] == cum[-1]
    t, dwell = race((0, 1), cum, _Stub(0.5, u))
    assert t == 1 and dwell > 0


def _landing(cum, j):
    """A draw u < 1 with u * cum[-1] == cum[j] exactly, or None."""
    lam = cum[-1]
    u = cum[j] / lam
    for v in (u, math.nextafter(u, 0.0), math.nextafter(u, 1.0)):
        if v < 1.0 and v * lam == cum[j]:
            return v
    return None


# scales that keep the total rate normal, make it subnormal, or put it at the
# smallest subnormals, where u * lam rounds onto the last slot
_SCALES = st.sampled_from([1.0, 0.1, 3e5, 1e-300, 1e-310, 5e-324])


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(st.integers(1, 9), min_size=1, max_size=6),
       scale=_SCALES,
       draw=st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                      st.just(1.0 - 2.0**-53), st.integers(0, 5)))
@example(weights=[4], scale=1.0, draw=0.75)  # one successor
@example(weights=[1, 2, 1], scale=1.0, draw=1)  # u * lam == cum[1]
@example(weights=[1, 2], scale=1e-310, draw=1.0 - 2.0**-53)  # past the end
def test_race_picks_the_clamped_bisection(weights, scale, draw):
    # an integer draw is a slot j: u is then a double with u * lam == cum[j]
    cum = list(accumulate(w * scale for w in weights))
    if isinstance(draw, int):
        draw = _landing(cum, draw % len(cum))
        assume(draw is not None)
    want = min(bisect_right(cum, draw * cum[-1]), len(cum) - 1)
    t, dwell = race(tuple(range(len(cum))), cum, _Stub(0.5, draw))
    assert t == want and dwell > 0


def test_race_is_the_one_sampler():
    # only race inverts the exponential CDF and bisects cumulative rates,
    # and the trainer and ctsched simulate draw dwells and successors only
    # through it, stepping on the product's ids
    src = Path(ctsched.__file__).parent
    calling = {f"{path.stem}.{node.name}"
               for path in sorted(src.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)
               and any(isinstance(x, ast.Call) and ast.unparse(x.func)
                       .split(".")[-1] in ("log1p", "bisect_right")
                       for x in ast.walk(node))}
    assert calling == {"simulate.race"}
    tree = ast.parse((src / "learn.py").read_text())
    train = next(n for n in tree.body
                 if isinstance(n, ast.FunctionDef) and n.name == "_train")
    calls = [x for x in ast.walk(train) if isinstance(x, ast.Call)]
    called = {ast.unparse(x.func) for x in calls}
    assert "race" in called
    assert not called & {"sample_transition", "env.sample", "accepting_dwell"}
    # the trajectory stream is read only by race
    race_args = [a for x in calls if ast.unparse(x.func) == "race"
                 for a in x.args]
    reads = [x for x in ast.walk(train) if isinstance(x, ast.Name)
             and x.id == "traj" and isinstance(x.ctx, ast.Load)]
    assert reads and all(any(x is a for a in race_args) for x in reads)
    tree = ast.parse((src / "cli.py").read_text())
    simulate = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                    and n.name == "cmd_simulate")
    called = {ast.unparse(x.func) for x in ast.walk(simulate)
              if isinstance(x, ast.Call)}
    assert "race" in called
    assert not {name for name in called
                if name.split(".")[-1] in ("OnTheFlyProductEnv", "sample",
                                           "sample_transition")}
