"""Reward signal of the expectation objective."""
from ctsched.learn import accepting_dwell


def test_exp_reward_is_dwell_on_accepting():
    assert accepting_dwell(True, 0.37) == 0.37
    assert accepting_dwell(False, 0.37) == 0.0
    assert accepting_dwell(True, 0.0) == 0.0
