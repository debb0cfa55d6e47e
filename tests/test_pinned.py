"""Seeded outputs pinned to recorded values.

Any change to the samplers, the rng streams or the learner's draw order
moves these, so a refactor that claims to keep behaviour must leave them
bit for bit as they are.
"""
from importlib import resources

from ctsched.check import psem_optimal
from ctsched.cli import main
from ctsched.data import load_automaton, load_model
from ctsched.learn import Hyperparams, learn_sat
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


def test_psem_optimal_schedule_is_pinned():
    p = build_product(load_model("polling2"), load_automaton("polling"))
    opt = psem_optimal(augment(p, 0.99).product)
    assert opt.schedule == PINNED_PSEM_SCHEDULE
