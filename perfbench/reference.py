"""Reference answers computed apart from the checker, by linear programming
(scipy's HiGHS), to grade the checker's optima."""
from __future__ import annotations

from typing import FrozenSet

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from ctsched.model import Ctmdp


def average_reward_lp(m: Ctmdp, accepting: FrozenSet[int]) -> float:
    """Optimal long-run fraction of time in ``accepting``: the dual LP over
    state-action frequencies x(s,a) >= 0 of the chain uniformized at the
    maximal exit rate, where every step takes the same expected time.

    The LP maximizes over all stationary distributions, which is the optimal
    gain of every state when the model is communicating, as the polling
    family is.
    """
    cap = m.max_exit_rate
    choices = list(m.trans.items())
    rows, cols, vals = [], [], []
    reward = np.zeros(len(choices))
    for j, ((s, _a), (succ, rates)) in enumerate(choices):
        # balance at every state t: out-flow x(t, .) equals in-flow
        rows += [s, s]
        cols += [j, j]
        vals += [1.0, -(1.0 - rates.sum() / cap)]
        rows += [int(t) for t in succ]
        cols += [j] * len(succ)
        vals += list(-rates / cap)
        reward[j] = 1.0 if s in accepting else 0.0
    n = m.num_states
    rows += [n] * len(choices)
    cols += list(range(len(choices)))
    vals += [1.0] * len(choices)
    a_eq = csr_matrix((vals, (rows, cols)), shape=(n + 1, len(choices)))
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    res = linprog(-reward, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"average-reward LP failed: {res.message}")
    return -res.fun


def hazard_max_reach(n: int, run: float, walk: float, back: float,
                     slip_run: float, slip_walk: float) -> float:
    """Maximal probability that the rover of ``families.hazard_text`` reaches
    the dock from zone 0 without slipping, built from the family's
    parameters alone (no parser, no product).

    Least solution of v(x) >= sum_y P(x, a, y) v(y) for every action, with
    v(n) = 1 and the hazard at 0: minimize sum v.
    """
    a_rows, rhs = [], []
    for x in range(n):
        moves = [{x + 1: run, "slip": slip_run * (1 + 2 * x / n)}]
        if x > 0:
            moves.append({x + 1: walk, x - 1: back, "slip": slip_walk})
        else:
            moves.append({x + 1: walk, "slip": slip_walk})
        for move in moves:
            total = sum(move.values())
            row = np.zeros(n)
            row[x] -= 1.0
            goal = 0.0
            for y, rate in move.items():
                if y == "slip":
                    continue
                if y == n:
                    goal += rate / total
                else:
                    row[y] += rate / total
            a_rows.append(row)
            rhs.append(-goal)
    res = linprog(np.ones(n), A_ub=np.array(a_rows), b_ub=np.array(rhs),
                  bounds=(0, 1), method="highs")
    if res.status != 0:
        raise RuntimeError(f"max-reachability LP failed: {res.message}")
    return float(res.x[0])
