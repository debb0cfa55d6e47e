"""Model-free learning on the risk/reward model, graded by the exact checker.

The learner never sees the transition matrix: it samples trajectories of the
model x automaton product from its rows (the product that ``build_product``
returns, which the checker grades) and runs tabular Q-learning with
dwell-time discounting.  The resulting greedy schedule is then evaluated exactly, which
is the honest way to score a learned policy.

Run:  python3 demos/02_learning_schedules.py
      (about 9 s of wall clock on a 2-core Xeon: median of three runs)
"""
import time

from ctsched import (build_product, esem_of, esem_optimal, learn_exp,
                     learn_sat, psem_of, psem_optimal)
from ctsched.data import load_automaton, load_model


def main():
    m = load_model("riskreward")
    a = load_automaton("riskreward")
    p = build_product(m, a)

    print("objective: satisfaction (probability of Buchi acceptance)")
    exact = psem_optimal(p).value
    t0 = time.time()
    res = learn_sat(m, a, seed=0)
    graded = psem_of(p, res.schedule).value
    print(f"  exact optimum        {exact:.6g}")
    print(f"  running estimate     {res.estimate:.4f} "
          "(biased low by the payout construction)")
    print(f"  learned schedule     {graded:.6g} exact value")
    print(f"  {res.episodes_run} episodes, {res.steps_run} steps, "
          f"{time.time() - t0:.1f}s, converged={res.converged}\n")

    print("objective: expectation (long-run fraction of accepting time)")
    exact = esem_optimal(p).value
    t0 = time.time()
    res = learn_exp(m, a, seed=0)
    graded = esem_of(p, res.schedule).value
    print(f"  exact optimum        {exact:.6g}")
    print(f"  running estimate     {res.estimate:.4f}")
    print(f"  learned schedule     {graded:.6g} exact value")
    print(f"  {res.episodes_run} episodes, {res.steps_run} steps, "
          f"{time.time() - t0:.1f}s")
    init = (m.initial, a.initial)
    act, _ = res.schedule[init]
    print(f"  learned first action: {m.action_names[act]} "
          "(takes the 9:1 race rather than the safe cycle)")


if __name__ == "__main__":
    main()
