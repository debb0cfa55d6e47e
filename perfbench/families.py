"""Scalable model families, emitted as `.ctmdp` text so that parsing is part
of what the benchmark measures.

Both families use a fixed number of guarded commands whatever their size:
the parser evaluates every guard in every reachable state, so one command per
zone would make parsing quadratic and drown the checker in set-up time.
"""
from __future__ import annotations

import numpy as np

# Objective automata of the bundled data set, by file name under ctsched/data.
POLLING_HOA = "polling.hoa"   # GF idle
HAZARD_HOA = "fig1.hoa"       # GF g & G !p

# Largest relative move of a rate drawn from the seed.  Small enough that the
# shape of the optimal schedule, and with it the work, stays the same.
JITTER = 0.02


def jitter(rng: np.random.Generator, base: float) -> float:
    """``base`` moved by at most JITTER of itself, rounded so that the
    emitted text and the reference computations read the same number."""
    return round(base * (1.0 + JITTER * (2.0 * rng.random() - 1.0)), 6)


def polling_params(rng: np.random.Generator) -> dict:
    return {"lambda1": jitter(rng, 1.2), "lambda2": jitter(rng, 0.8),
            "mu": jitter(rng, 4.0)}


def polling_text(k: int, lambda1: float, lambda2: float, mu: float) -> str:
    """Two queues of capacity ``k`` share one server.  Arrivals race every
    action; ``srvI`` also serves one job of queue I.  ``wait`` is enabled
    while some queue has room."""
    return f"""ctmdp
# Two-queue polling system, capacity {k} per queue.
const int K = {k};
const double lambda1 = {lambda1};
const double lambda2 = {lambda2};
const double mu = {mu};

module polling
  j1 : [0..K] init 0;
  j2 : [0..K] init 0;

  [wait] j1<K & j2<K -> lambda1 : (j1'=j1+1) + lambda2 : (j2'=j2+1);
  [wait] j1=K & j2<K -> lambda2 : (j2'=j2+1);
  [wait] j1<K & j2=K -> lambda1 : (j1'=j1+1);
  [srv1] j1>0 & j1<K & j2<K -> mu : (j1'=j1-1) + lambda1 : (j1'=j1+1) + lambda2 : (j2'=j2+1);
  [srv1] j1=K & j2<K -> mu : (j1'=j1-1) + lambda2 : (j2'=j2+1);
  [srv1] j1>0 & j1<K & j2=K -> mu : (j1'=j1-1) + lambda1 : (j1'=j1+1);
  [srv1] j1=K & j2=K -> mu : (j1'=j1-1);
  [srv2] j2>0 & j2<K & j1<K -> mu : (j2'=j2-1) + lambda2 : (j2'=j2+1) + lambda1 : (j1'=j1+1);
  [srv2] j2=K & j1<K -> mu : (j2'=j2-1) + lambda1 : (j1'=j1+1);
  [srv2] j2>0 & j2<K & j1=K -> mu : (j2'=j2-1) + lambda2 : (j2'=j2+1);
  [srv2] j2=K & j1=K -> mu : (j2'=j2-1);
endmodule

label "idle" = (j1=0) & (j2=0);
"""


def polling_product_states(k: int) -> int:
    """Every queue valuation is reachable; the automaton of GF idle adds one
    copy of each state entered straight from the empty system, (1,0) and
    (0,1)."""
    return (k + 1) ** 2 + 2


def hazard_params(rng: np.random.Generator) -> dict:
    return {"run": jitter(rng, 3.0), "walk": jitter(rng, 1.0),
            "back": jitter(rng, 0.5), "slip_run": jitter(rng, 0.006),
            "slip_walk": jitter(rng, 0.002)}


def hazard_text(n: int, run: float, walk: float, back: float,
                slip_run: float, slip_walk: float) -> str:
    """A rover crosses zones 0..n towards a dock at zone n.  ``run`` is fast
    but slips into the hazard at a rate growing with the zone; ``walk`` is
    slow, may fall back one zone and slips rarely.  A slip is final."""
    return f"""ctmdp
# Rover on a line of {n + 1} zones; label p marks the hazard, g the dock.
const int N = {n};
const double run = {run};
const double walk = {walk};
const double back = {back};
const double slip_run = {slip_run};
const double slip_walk = {slip_walk};

module hazard
  x : [0..N] init 0;
  h : [0..1] init 0;

  [run] h=0 & x<N -> run : (x'=x+1) + slip_run * (1 + 2 * x / N) : (x'=0) & (h'=1);
  [walk] h=0 & x>0 & x<N -> walk : (x'=x+1) + back : (x'=x-1) + slip_walk : (x'=0) & (h'=1);
  [walk] h=0 & x=0 -> walk : (x'=1) + slip_walk : (x'=0) & (h'=1);
  [dock] h=0 & x=N -> 1 : true;
  [stuck] h=1 -> 1 : true;
endmodule

label "g" = (h=0) & (x=N);
label "p" = h=1;
"""
