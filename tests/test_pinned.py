"""Seeded outputs pinned to recorded values.

Any change to the samplers, the rng streams or the learner's draw order
moves these, so a refactor that claims to keep behaviour must leave them
bit for bit as they are.
"""
from importlib import resources

import numpy as np
import pytest

from ctsched.bruteforce import random_ctmdp, random_reward_spec
from ctsched.check import (alpha_from_gamma, average_optimal,
                           discounted_optimal, esem_optimal, psem_optimal)
from ctsched.cli import main
from ctsched.data import BENCH_PAIRS, load_automaton, load_model
from ctsched.learn import Hyperparams, learn_exp, learn_sat
from ctsched.product import SINK_ACTION, SINK_PAIR, augment, build_product

# learn_sat on riskreward, seed 0, Hyperparams(ep_n=50, ep_len=60, beta=0.05)
PINNED_STEPS = 2649
PINNED_SCHEDULE = {
    (0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (5, 1), (2, 0): (3, 1),
    (2, 1): (3, 1), (3, 0): (2, 2), (3, 2): (2, 3), (3, 3): (2, 3),
}
PINNED_Q = {
    ((0, 0), (0, 0)): "0x1.c93b326314edep-4",
    ((0, 0), (1, 0)): "0x1.74fe4c47aa4b3p-8",
    ((0, 1), (0, 0)): "0x1.5a0c9c1da301bp-3",
    ((0, 1), (1, 0)): "0x1.7254673026addp-4",
    ((1, 0), (5, 1)): "0x1.5a0c8d4ce8404p-3",
    ((2, 0), (3, 1)): "0x1.359f6673337fap-3",
    ((2, 0), (4, 1)): "0x1.d4ed974bbb5d8p-7",
    ((2, 1), (3, 1)): "0x1.ce86c5f72649ap-3",
    ((2, 1), (4, 1)): "0x1.9c7e1c72a730cp-4",
    ((3, 0), (2, 2)): "0x0.0p+0",
    ((3, 2), (2, 3)): "0x0.0p+0",
    ((3, 3), (2, 3)): "0x0.0p+0",
}

# learn_exp on mars x fig1, seed 0,
# Hyperparams(ep_n=50, ep_len=60, decay_beta=True): the 1/visit-count rates;
# entries in the order of their first update, as (Q hex, visits)
PINNED_DECAY_STEPS = 3000
PINNED_DECAY_ESTIMATE = "0x1.e688949b26b4bp-4"
PINNED_DECAY_SCHEDULE = {
    (0, 0): (1, 0), (3, 0): (2, 2), (3, 2): (2, 2), (1, 0): (5, 1),
    (0, 1): (1, 0), (2, 0): (3, 1), (2, 1): (3, 1),
}
PINNED_DECAY_Q = [
    (((0, 0), (1, 0)), "0x1.784da2efffef6p+2", 42),
    (((3, 0), (2, 2)), "0x0.0p+0", 30),
    (((3, 2), (2, 2)), "0x0.0p+0", 1067),
    (((0, 0), (0, 0)), "0x1.5d95b815d9609p+0", 8),
    (((1, 0), (5, 1)), "0x1.20e9900d2bb15p+1", 117),
    (((0, 1), (0, 0)), "0x1.5b6a0f9b6f596p+1", 109),
    (((0, 1), (1, 0)), "0x1.5f1e68c28f59fp+2", 93),
    (((2, 0), (3, 1)), "0x1.0010ba490e5e1p+3", 97),
    (((2, 1), (3, 1)), "0x1.213379892623cp+3", 1349),
    (((2, 1), (4, 1)), "0x1.6eb31235eae88p+2", 82),
    (((2, 0), (4, 1)), "0x1.259c9d3e9ea9ep+2", 6),
]

# ctsched simulate --model mars --automaton fig1 --seed 9, first five rows
PINNED_SIMULATE = """\
step,state,action,next,dwell,reward
0,"(z=0,q0)",a>q0,"(z=3,q0)",0.923763643,0
1,"(z=3,q0)",c>q1,"(z=0,q1)",0.0915931716,0
2,"(z=0,q1)",a>q0,"(z=3,q0)",1.24762977,1.24762977
3,"(z=3,q0)",c>q1,"(z=0,q1)",0.253525391,0
4,"(z=0,q1)",a>q0,"(z=3,q0)",1.62740844,1.62740844
"""

# psem_optimal on polling2 x polling augmented with zeta = 0.99; in (1,1)
# and (2,1) other actions reach the same value, and the attractor toward
# the winning region decides the tie
PINNED_PSEM_SCHEDULE = {
    (0, 0): (0, 1), (1, 1): (0, 0), (2, 1): (0, 0), (3, 0): (1, 0),
    (1, 0): (2, 0), (2, 0): (1, 0), SINK_PAIR: SINK_ACTION,
}

# psem_optimal on the hazard line of perfbench/families.py with N = 30 at
# the rates of seed 1: model state 0 is zone 0, 1 is zone 1, 2 the hazard
# and s >= 3 zone s - 1; actions run 0, walk 1, stuck 2, dock 3.  Walk from
# zone 0, run through zones 1-11, walk through zones 12-29, dock at 30.
PINNED_HAZARD_SCHEDULE = {
    (0, 0): (1, 0), (1, 0): (0, 0), (2, 0): (2, 2), (2, 2): (2, 2),
    **{(s, 0): (0, 0) for s in range(3, 13)},
    **{(s, 0): (1, 0) for s in range(13, 31)},
    (31, 0): (3, 1), (31, 1): (3, 1),
}

# esem_optimal on the bench pairs, then on polling2 x polling augmented
# with zeta = 0.99
PINNED_ESEM_SCHEDULES = {
    ("riskreward", "riskreward"): {
        (0, 0): (1, 0), (0, 1): (1, 0), (1, 0): (5, 1), (2, 0): (3, 1),
        (2, 1): (3, 1), (3, 0): (2, 2), (3, 2): (2, 3), (3, 3): (2, 3)},
    ("mars", "fig1"): {
        (0, 0): (1, 0), (0, 1): (1, 0), (1, 0): (5, 1), (2, 0): (3, 1),
        (2, 1): (3, 1), (3, 0): (2, 2), (3, 2): (2, 2)},
    ("polling2", "polling"): {
        (0, 0): (0, 1), (1, 0): (2, 0), (1, 1): (0, 0), (2, 0): (1, 0),
        (2, 1): (0, 0), (3, 0): (1, 0)},
}
PINNED_ESEM_AUGMENTED_SCHEDULE = {
    (0, 0): (0, 1), (1, 1): (2, 0), (2, 1): (1, 0), (3, 0): (1, 0),
    (1, 0): (2, 0), (2, 0): (1, 0), SINK_PAIR: SINK_ACTION,
}

# average_optimal, and discounted_optimal at per-step discounts 0.9 and
# 0.9999, on the first four models of np.random.default_rng(4242) drawn as
# acceptance criterion 6 draws them
PINNED_RANDOM_SCHEDULES = [
    [0, 0, 0, 0, 1],
    [0, 1, 2, 1, 0, 0],
    [0, 1, 1, 0],
    [1, 1, 0, 0, 0, 0],
]


def test_seeded_learner_and_simulate_outputs_are_pinned(riskreward, tmp_path,
                                                        capsys):
    m, a, _ = riskreward
    res = learn_sat(m, a, Hyperparams(ep_n=50, ep_len=60, beta=0.05), seed=0)
    assert res.steps_run == PINNED_STEPS
    assert res.schedule == PINNED_SCHEDULE
    assert res.qtable.q == {k: float.fromhex(v) for k, v in PINNED_Q.items()}

    paths = []
    for name in ("mars.ctmdp", "fig1.hoa"):
        f = tmp_path / name
        f.write_text(resources.files("ctsched.data").joinpath(name).read_text())
        paths.append(str(f))
    code = main(["simulate", "--model", paths[0], "--automaton", paths[1],
                 "--seed", "9", "--steps", "5"])
    assert code == 0
    assert capsys.readouterr().out == PINNED_SIMULATE


def test_decaying_rate_learner_output_is_pinned(mars):
    m, a, _ = mars
    res = learn_exp(m, a, Hyperparams(ep_n=50, ep_len=60, decay_beta=True),
                    seed=0)
    assert res.steps_run == PINNED_DECAY_STEPS
    assert res.estimate.hex() == PINNED_DECAY_ESTIMATE
    assert list(res.schedule.items()) == list(PINNED_DECAY_SCHEDULE.items())
    assert [(k, v.hex(), res.qtable.visits[k])
            for k, v in res.qtable.q.items()] == PINNED_DECAY_Q
    assert list(res.qtable.visits) == list(res.qtable.q)


def test_psem_optimal_schedule_is_pinned():
    p = build_product(load_model("polling2"), load_automaton("polling"))
    opt = psem_optimal(augment(p, 0.99))
    assert opt.schedule == PINNED_PSEM_SCHEDULE


def test_psem_optimal_hazard_schedules_are_pinned(hazard_line):
    p, _ = hazard_line(30)
    assert psem_optimal(p).schedule == PINNED_HAZARD_SCHEDULE
    opt = psem_optimal(augment(p, 0.99))
    assert opt.schedule == {**PINNED_HAZARD_SCHEDULE, SINK_PAIR: SINK_ACTION}


@pytest.mark.parametrize("pair", BENCH_PAIRS)
def test_esem_optimal_schedules_are_pinned(pair):
    p = build_product(load_model(pair[0]), load_automaton(pair[1]))
    assert esem_optimal(p).schedule == PINNED_ESEM_SCHEDULES[pair]


def test_esem_optimal_augmented_schedule_is_pinned():
    p = build_product(load_model("polling2"), load_automaton("polling"))
    opt = esem_optimal(augment(p, 0.99))
    assert opt.schedule == PINNED_ESEM_AUGMENTED_SCHEDULE


def test_average_and_discounted_optimal_schedules_are_pinned():
    rng = np.random.default_rng(4242)
    for want in PINNED_RANDOM_SCHEDULES:
        m = random_ctmdp(rng, num_states=int(rng.integers(3, 8)))
        spec = random_reward_spec(rng, m)
        assert average_optimal(m, spec)[1].tolist() == want
        for gamma in (0.9, 0.9999):
            alpha = alpha_from_gamma(gamma, m.max_exit_rate)
            assert discounted_optimal(m, spec, alpha)[1].tolist() == want
