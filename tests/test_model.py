"""Core model structures: construction, embedding, uniformization, MECs."""
import numpy as np
import pytest

from ctsched.bruteforce import (_gate, brute_force_mec_pairs, random_buchi,
                                random_ctmdp)
from ctsched.data import load_model
from ctsched.model import (ActionNotEnabled, Ctmdp, CtmdpError, embed,
                           mec_decompose, uniformize, validate)
from ctsched.product import TRAP_PAIR, augment, build_product


def two_state():
    return Ctmdp.from_transitions(
        ("s0", "s1"), ("a", "b"), 0,
        [(0, 0, 1, 3.0), (0, 1, 1, 6.0), (1, 0, 1, 2.0)])


def test_from_transitions_sums_duplicate_edges():
    m = Ctmdp.from_transitions(
        ("s0", "s1"), ("a",), 0,
        [(0, 0, 1, 1.5), (0, 0, 1, 2.5), (1, 0, 1, 1.0)])
    succ, rates = m.successors(0, 0)
    assert list(succ) == [1]
    assert rates[0] == 4.0


def test_from_transitions_drops_zero_and_rejects_negative_rates():
    m = Ctmdp.from_transitions(
        ("s0", "s1"), ("a",), 0,
        [(0, 0, 1, 1.0), (0, 0, 0, 0.0), (1, 0, 1, 1.0)])
    succ, _ = m.successors(0, 0)
    assert list(succ) == [1]
    with pytest.raises(CtmdpError):
        Ctmdp.from_transitions(("s0",), ("a",), 0, [(0, 0, 0, -1.0)])


def test_enabled_and_disabled_actions():
    m = two_state()
    assert m.enabled(0) == (0, 1)
    assert m.enabled(1) == (0,)
    with pytest.raises(ActionNotEnabled):
        m.successors(1, 1)


def test_exit_rates():
    m = two_state()
    assert m.successors(0, 0)[1].sum() == 3.0
    assert m.successors(0, 1)[1].sum() == 6.0
    assert m.successors(1, 0)[1].sum() == 2.0
    assert m.max_exit_rate == 6.0


def test_embedded_rows_are_distributions():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = random_ctmdp(rng, num_states=5)
        e = embed(m)
        for (s, a), (succ, probs) in e.trans.items():
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs > 0)
            # embedded probabilities are rates over the exit rate
            rates = m.successors(s, a)[1]
            assert np.allclose(probs, rates / rates.sum())


def test_uniformize_adds_self_loop_mass():
    m = two_state()
    u = uniformize(m)  # cap defaults to 6
    for (s, a) in u.trans:
        assert u.successors(s, a)[1].sum() == pytest.approx(6.0, abs=1e-12)
    # (s0, a) had rate 3 to s1; the missing 3 becomes a self-loop
    succ, rates = u.successors(0, 0)
    assert dict(zip(succ.tolist(), rates.tolist())) == {0: 3.0, 1: 3.0}
    # (s1, a) was a self-loop of 2; it absorbs the whole gap
    succ, rates = u.successors(1, 0)
    assert dict(zip(succ.tolist(), rates.tolist())) == {1: 6.0}
    # off-diagonal rates never change
    succ, rates = u.successors(0, 1)
    assert dict(zip(succ.tolist(), rates.tolist())) == {1: 6.0}


def test_uniformize_explicit_cap_and_bad_cap():
    m = two_state()
    u = uniformize(m, cap=10.0)
    assert all(u.successors(s, a)[1].sum() == pytest.approx(10.0)
               for (s, a) in u.trans)
    with pytest.raises(CtmdpError):
        uniformize(m, cap=5.0)


@pytest.mark.parametrize("cap", [float("nan"), float("inf")])
def test_uniformize_rejects_a_non_finite_cap(cap):
    with pytest.raises(CtmdpError, match="not finite"):
        uniformize(two_state(), cap=cap)


def test_uniformize_preserves_embedded_jump_targets():
    rng = np.random.default_rng(11)
    m = random_ctmdp(rng, num_states=6)
    u = uniformize(m)
    for (s, a), (succ, rates) in m.trans.items():
        su, ru = u.successors(s, a)
        for t, r in zip(succ, rates):
            if int(t) == s:
                continue
            i = int(np.searchsorted(su, t))
            assert su[i] == t and ru[i] == pytest.approx(float(r))


def test_validate_flags_problems():
    good = two_state()
    assert validate(good) == []
    # a state with no enabled action
    bad = Ctmdp.from_transitions(("s0", "s1"), ("a",), 0, [(0, 0, 1, 1.0)])
    problems = validate(bad)
    assert any("no enabled action" in p for p in problems)


def _with_choice(key):
    """two_state() plus one choice under ``key``, a self-loop of rate 1."""
    m = two_state()
    return Ctmdp(m.state_names, m.action_names, m.initial,
                 {**m.trans, key: (np.array([0]), np.array([1.0]))})


def test_validate_reports_choice_ids_out_of_range():
    assert validate(_with_choice((2, 0))) == ["(2, a): state out of range"]
    assert validate(_with_choice((1, 2))) == ["(s1, 2): action out of range"]


def test_validate_reports_a_negative_action_id():
    assert validate(_with_choice((1, -1))) == ["(s1, -1): action out of range"]


def test_validate_reports_a_repeated_successor():
    # from_transitions adds duplicate edges up; a table built by hand that
    # lists a successor twice in one choice is reported
    m = two_state()
    m = Ctmdp(m.state_names, m.action_names, m.initial,
              {**m.trans, (1, 0): (np.array([0, 1, 0]), np.ones(3))})
    assert validate(m) == ["(s1, a): repeated successor"]


def test_validate_reports_labels_short_of_the_state_count():
    m = Ctmdp.from_transitions(("s0", "s1"), ("a",), 0,
                               [(0, 0, 1, 1.0), (1, 0, 0, 1.0)],
                               ap=("x",), labels=[{0}])
    assert validate(m) == ["labels given for 1 states, not 2"]


def test_mec_decompose_on_bundled_model():
    m = load_model("mec_demo")
    idx = {name: i for i, name in enumerate(m.state_names)}
    mecs = mec_decompose(embed(m))
    found = {frozenset(m.state_names[s] for s in mec.states)
             for mec in mecs.components}
    assert found == {frozenset({"z=2"}), frozenset({"z=3", "z=4"}),
                     frozenset({"z=5", "z=6"})}
    # z=1 is transient under every schedule
    assert all(idx["z=1"] not in mec.states for mec in mecs.components)
    # in {z=3, z=4} every action stays inside, so all are retained
    mec34 = next(mec for mec in mecs.components
                 if idx["z=3"] in mec.states)
    assert set(mec34.actions[idx["z=3"]]) == set(m.enabled(idx["z=3"]))


def test_mec_decompose_accepting_flag():
    m = load_model("mec_demo")
    idx = {name: i for i, name in enumerate(m.state_names)}
    mecs = mec_decompose(embed(m), accepting={idx["z=5"]})
    for mec in mecs.components:
        assert mec.accepting == (idx["z=5"] in mec.states)


def test_mec_decompose_matches_recurrence_oracle():
    # a pair (s, a) sits in some end-component exactly when some pure
    # schedule makes s recurrent while playing a there
    rng = np.random.default_rng(20)
    for _ in range(15):
        m = random_ctmdp(rng, num_states=6, max_schedules=2000)
        oracle = brute_force_mec_pairs(m)
        mecs = mec_decompose(embed(m))
        ours = set()
        for mec in mecs.components:
            for s, acts in mec.actions.items():
                for a in acts:
                    ours.add((s, a))
        assert ours == set(oracle)
    # products with a trap state, plain and augmented with a sink
    rng = np.random.default_rng(29)
    traps = compared = 0
    for _ in range(30):
        m = random_ctmdp(rng, num_states=int(rng.integers(2, 5)),
                         max_actions=2, ap=("g", "p"))
        p = build_product(m, random_buchi(rng, num_states=2))
        traps += TRAP_PAIR in p.pairs
        for prod in (p, augment(p, 0.5).product):
            try:
                _gate(prod.ctmdp)
            except CtmdpError:
                continue  # too many schedules to enumerate
            mecs = mec_decompose(embed(prod.ctmdp))
            ours = {(s, a) for mec in mecs.components
                    for s, acts in mec.actions.items() for a in acts}
            assert ours == set(brute_force_mec_pairs(prod.ctmdp))
            compared += 1
    assert traps >= 10 and compared >= 40
