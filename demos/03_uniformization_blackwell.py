"""Uniformization and the Blackwell property on small models.

Part 1 uniformizes a two-state model and shows that discounted values are
preserved once transition rewards are rescaled by (alpha + lam) / (alpha + C).
Part 2 tracks discounted-optimal schedules as the discount approaches 1 and
shows they stabilize on an average-reward-optimal schedule.

Run:  python3 demos/03_uniformization_blackwell.py
"""
import numpy as np

from ctsched import blackwell_probe, build_product
from ctsched.check import (RewardSpec, accepting_rate_spec, discounted_value,
                           uniformized_reward_spec)
from ctsched.data import load_automaton, load_model
from ctsched.model import uniformize


def main():
    m = load_model("uniform_demo")
    print("exit rates before uniformization:")
    for (s, a) in sorted(m.trans):
        print(f"  ({m.state_names[s]}, {m.action_names[a]}): "
              f"{m.successors(s, a)[1].sum():g}")
    u = uniformize(m)
    print("after uniformization every pair exits at the cap:")
    for (s, a) in sorted(u.trans):
        print(f"  ({u.state_names[s]}, {u.action_names[a]}): "
              f"{u.successors(s, a)[1].sum():g}")

    alpha = 0.5
    sigma = np.array([m.enabled(s)[0] for s in range(m.num_states)],
                     dtype=np.int64)
    spec = RewardSpec(state_rate=np.array([1.0, 0.0]),
                      action_reward={(s, int(sigma[s])): 2.0 - s
                                     for s in range(m.num_states)})
    v1 = discounted_value(m, spec, sigma, alpha)
    v2 = discounted_value(u, uniformized_reward_spec(m, spec, alpha,
                                                     m.max_exit_rate),
                          sigma, alpha)
    print(f"\ndiscounted values, original model:    {v1}")
    print(f"discounted values, uniformized model: {v2}")
    print(f"max difference: {np.max(np.abs(v1 - v2)):.2e}\n")

    p = build_product(load_model("riskreward"), load_automaton("riskreward"))
    spec = accepting_rate_spec(p.num_states, p.accepting)
    gammas = [0.9, 0.99, 0.999, 0.9999, 0.99999]
    report = blackwell_probe(p.ctmdp, spec, gammas)
    print("discounted-optimal schedules while gamma -> 1:")
    for gamma, sched in zip(report.gammas, report.schedules):
        print(f"  gamma={gamma:<8g} schedule={sched}")
    print(f"average-optimal schedule:  {report.average_schedule}")
    print(f"stabilized from gamma={gammas[report.stable_from]:g}: "
          "above that discount the choice no longer changes and is "
          "average-optimal")


if __name__ == "__main__":
    main()
