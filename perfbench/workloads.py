"""The four workloads and the round every one of them runs.

Every workload runs the same pipeline on its own inputs, so that every
end-to-end metric exists on every workload: exact optima under both
semantics, grading of the returned schedules, both learners with their
learned schedules graded, and brute force on products small enough for it.
What differs is the input, and with it the layer that dominates:

* esem-polling: dense multichain policy iteration (ESem on the polling
  family; PSem is trivial there, one accepting MEC covers every state);
* psem-hazard: MEC decomposition, Python value iteration and the
  reachability closure (PSem on the hazard line; ESem is cheap there);
* learn: the per-step Q-learning path on the bundled desk-scale models;
* oracle-small: per-call overhead over many tiny random products.
"""
from __future__ import annotations

import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import ctsched.data
from ctsched.automata import BuchiAutomaton
from ctsched.bruteforce import (brute_force_esem, brute_force_psem,
                                count_schedules, random_marked_product)
from ctsched.check import esem_of, esem_optimal, psem_of, psem_optimal
from ctsched.formats import (HoaSource, ModelSource, parse_hoa, parse_model,
                             serialize_model)
from ctsched.learn import Hyperparams, OnTheFlyProductEnv, learn_exp, learn_sat
from ctsched.model import Ctmdp, embed, mec_decompose
from ctsched.product import ProductCtmdp, build_product
from ctsched.simulate import RngHandle, sample_transition

import families
import reference
from clock import Clock
from spans import Tracer

DATA = Path(ctsched.data.__file__).parent

OPTIMAL = {"psem": psem_optimal, "esem": esem_optimal}
GRADE = {"psem": psem_of, "esem": esem_of}
LEARN = {"sat": learn_sat, "exp": learn_exp}
SEMANTICS = {"sat": "psem", "exp": "esem"}

# Family sizes.  Polling at K=25 (678 product states) already needs 52 to
# 66 policy-iteration sweeps and fails on some rate draws (see CHANGES.md);
# K=20 (443 states) converged in 41-42 sweeps on every draw tried.
POLLING_K = 20
HAZARD_N = 200
SMALL_K = 1          # smallest family members, brute-forced every round
SMALL_N = 3
# Cheap calls repeat within a round so that no round total is a few
# milliseconds, where timer and host noise would dominate.
REPEAT = 10

# Learner budgets.  The learn workload's budget reaches the optimum of
# riskreward on seeds 0-29 except sat seed 28 and exp seed 0, so every run of
# three or more rounds meets the 2-of-3 majority of acceptance criteria 1-2.
LEARN_HP = Hyperparams(ep_n=2000, ep_len=60, beta=0.05)
SIDE_HP = Hyperparams(ep_n=200, ep_len=60, beta=0.05)

# oracle-small: 48 random products, 8 of each size from 3 to 8 states, drawn
# once from a fixed generator seed like acceptance criterion 4; the run's
# seed moves every rate by up to 2%.  Brute-force work per round then does
# not depend on the seed, which it did by 20-30% with products drawn afresh.
ORACLE_SIZES = tuple(range(3, 9)) * 8
ORACLE_MAX_SCHEDULES = 200
ORACLE_SHAPE_SEED = 12345
ORACLE_LEARNED = 2     # instances also learned, as labelled model + GF acc

GF_ACC_HOA = """HOA: v1
name: "GF acc"
States: 2
Start: 0
AP: 1 "acc"
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
State: 0
[!0] 0
[0] 1
State: 1 {0}
[0] 1
[!0] 0
--END--
"""


@dataclass
class Case:
    """A product analysed every round."""
    name: str
    product: ProductCtmdp
    exact: Tuple[Tuple[str, int], ...]  # (semantics, times) optimised and graded
    oracle: int                         # times brute-forced


@dataclass
class Learner:
    """A model learned every round under both objectives."""
    name: str
    model: Ctmdp
    automaton: BuchiAutomaton
    product: ProductCtmdp       # grades the learned schedules
    hp: Hyperparams


@dataclass
class Inputs:
    cases: List[Case]
    learners: List[Learner]
    params: dict = field(default_factory=dict)


def _parse(tracer: Tracer, text: str, origin: str) -> Ctmdp:
    with tracer.span("formats.parse_model") as attrs:
        m = parse_model(ModelSource(text, origin=origin))
        attrs["states"] = m.num_states
    return m


def _automaton(tracer: Tracer, text: str, origin: str) -> BuchiAutomaton:
    with tracer.span("formats.parse_hoa"):
        return parse_hoa(HoaSource(text, origin=origin))


def _product(tracer: Tracer, m: Ctmdp, a: BuchiAutomaton) -> ProductCtmdp:
    with tracer.span("product.build_product") as attrs:
        p = build_product(m, a)
        attrs["states"] = p.num_states
        attrs["choices"] = len(p.ctmdp.trans)
        attrs["transitions"] = sum(len(s) for s, _ in p.ctmdp.trans.values())
    return p


# ---------------------------------------------------------------------------
# Set-up: inputs from the seed, as text, parsed and multiplied out

def _setup_family(seed: int, tracer: Tracer, name: str, params_of, text_of,
                  hoa: str, size: int, small: int,
                  exact: Tuple[Tuple[str, int], ...]) -> Inputs:
    """A family member of ``size`` analysed and learned, and its member of
    ``small`` brute-forced, with rates drawn from ``seed``."""
    params = params_of(np.random.default_rng(seed))
    a = _automaton(tracer, (DATA / hoa).read_text(), hoa)
    m = _parse(tracer, text_of(size, **params), name)
    m_small = _parse(tracer, text_of(small, **params), f"{name}{small}")
    p = _product(tracer, m, a)
    return Inputs(cases=[Case(name, p, exact, 0),
                         Case(f"{name}-small", _product(tracer, m_small, a),
                              (), 2 * REPEAT)],
                  learners=[Learner(name, m, a, p, SIDE_HP)],
                  params=params)


def setup_polling(seed: int, tracer: Tracer) -> Inputs:
    return _setup_family(seed, tracer, "polling", families.polling_params,
                         families.polling_text, families.POLLING_HOA,
                         POLLING_K, SMALL_K, (("esem", 1), ("psem", REPEAT)))


def setup_hazard(seed: int, tracer: Tracer) -> Inputs:
    return _setup_family(seed, tracer, "hazard", families.hazard_params,
                         families.hazard_text, families.HAZARD_HOA,
                         HAZARD_N, SMALL_N, (("psem", 1), ("esem", REPEAT)))


def setup_learn(seed: int, tracer: Tracer) -> Inputs:
    # the bundled models and the learner seeds 0, 1, 2, ... of acceptance
    # criteria 1-2; the seed does not change them
    cases, learners = [], []
    for name, hoa in (("riskreward", "riskreward"), ("mars", "fig1")):
        a = _automaton(tracer, (DATA / f"{hoa}.hoa").read_text(), hoa)
        m = _parse(tracer, (DATA / f"{name}.ctmdp").read_text(), name)
        p = _product(tracer, m, a)
        cases.append(Case(name, p, (("psem", REPEAT), ("esem", REPEAT)), REPEAT))
        learners.append(Learner(name, m, a, p, LEARN_HP))
    return Inputs(cases=cases, learners=learners)


def oracle_instances(seed: int) -> List[ProductCtmdp]:
    shapes = np.random.default_rng(ORACLE_SHAPE_SEED)
    rates = np.random.default_rng(seed)
    out = []
    for n in ORACLE_SIZES:
        p = random_marked_product(shapes, num_states=n, max_actions=3,
                                  max_schedules=ORACLE_MAX_SCHEDULES)
        m = p.ctmdp
        trans = {key: (succ, r * (1.0 + families.JITTER
                                  * (2.0 * rates.random(len(r)) - 1.0)))
                 for key, (succ, r) in m.trans.items()}
        out.append(ProductCtmdp(
            Ctmdp(m.state_names, m.action_names, m.initial, trans, m.ap,
                  m.labels),
            p.pairs, p.action_pairs, p.accepting))
    return out


def labelled(p: ProductCtmdp) -> Ctmdp:
    """The marked product's model with label "acc" on its accepting states."""
    m = p.ctmdp
    return Ctmdp(m.state_names, m.action_names, m.initial, m.trans, ("acc",),
                 tuple(frozenset({0}) if s in p.accepting else frozenset()
                       for s in range(m.num_states)))


def setup_oracle(seed: int, tracer: Tracer) -> Inputs:
    with tracer.span("bruteforce.random_marked_product"):
        products = oracle_instances(seed)
    cases = [Case(f"random{i}", p, (("psem", 1), ("esem", 1)), 1)
             for i, p in enumerate(products)]
    a = _automaton(tracer, GF_ACC_HOA, "gf-acc")
    learners = []
    for case in cases[-ORACLE_LEARNED:]:
        with tracer.span("formats.serialize_model"):
            text = serialize_model(labelled(case.product), name=case.name)
        m = _parse(tracer, text, case.name)
        learners.append(Learner(case.name, m, a, _product(tracer, m, a),
                                SIDE_HP))
    return Inputs(cases=cases, learners=learners)


# ---------------------------------------------------------------------------
# One round

class Round:
    """Times and outputs of one round; every program call is one operation."""

    def __init__(self, tracer: Tracer, clock: Clock):
        self.tracer = tracer
        self.clock = clock
        self.times: Dict[str, float] = defaultdict(float)   # scaled seconds
        self.steps = 0
        self.attempted = 0
        self.failed = 0
        self.values: Dict[Tuple[str, str], np.ndarray] = {}
        self.wall = 0.0

    def call(self, metric: str, span: str, fn: Callable, *args,
             annotate: Optional[Callable] = None, **kwargs):
        self.attempted += 1
        out = None
        with self.tracer.span(span) as attrs:
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:   # counted and reported; the run goes on
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
            seconds = time.perf_counter() - t0
            if out is not None and annotate is not None:
                attrs.update(annotate(out))
        # outside the span: adding may time the clock's kernel
        self.clock.add(self.times, metric, seconds)
        return out


def run_round(inputs: Inputs, learner_seed: int, tracer: Tracer,
              clock: Clock) -> Round:
    r = Round(tracer, clock)
    t0 = time.perf_counter()
    with tracer.span("round", seed=learner_seed):
        for case in inputs.cases:
            for sem in (sem for sem, times in case.exact for _ in range(times)):
                opt = r.call(f"{sem}_opt_s", f"check.{sem}_optimal",
                             OPTIMAL[sem], case.product,
                             annotate=lambda res: {"iterations": res.iterations})
                if opt is None:
                    continue
                r.values[(case.name, sem)] = opt.values
                graded = r.call("grade_s", f"check.{sem}_of", GRADE[sem],
                                case.product, opt.schedule)
                if graded is not None:
                    r.values[(case.name, f"{sem}_of")] = graded.values
            for _ in range(case.oracle):
                schedules = count_schedules(case.product.ctmdp)
                for sem, fn in (("psem", brute_force_psem),
                                ("esem", brute_force_esem)):
                    extra = {"instances": 1} if sem == "psem" else {}
                    best = r.call("oracle_s", f"bruteforce.brute_force_{sem}",
                                  fn, case.product,
                                  annotate=lambda _: dict(schedules=schedules,
                                                          **extra))
                    if best is not None:
                        r.values[(case.name, f"brute_{sem}")] = np.array([best[0]])
        for lr in inputs.learners:
            for obj, fn in LEARN.items():
                res = r.call("learn_s", f"learn.learn_{obj}", fn, lr.model,
                             lr.automaton, lr.hp, seed=learner_seed,
                             annotate=lambda res: {
                                 "steps": res.steps_run,
                                 "episodes": res.episodes_run,
                                 "qtable_entries": len(res.qtable.q),
                                 "schedule_states": len(res.schedule)})
                if res is None:
                    continue
                r.steps += res.steps_run
                sem = SEMANTICS[obj]
                graded = r.call("grade_s", f"check.{sem}_of", GRADE[sem],
                                lr.product, res.schedule)
                if graded is not None:
                    r.values[(lr.name, f"learn_{obj}")] = np.array([graded.value])
    clock.flush()
    r.wall = time.perf_counter() - t0
    return r


# ---------------------------------------------------------------------------
# Layer extras for the traced run: calls timed by themselves

def extras(inputs: Inputs, tracer: Tracer, calls: int = 20000):
    with tracer.span("extras"):
        for case in inputs.cases:
            if not case.exact:
                continue
            p = case.product
            with tracer.span("model.mec_decompose") as attrs:
                mecs = mec_decompose(embed(p.ctmdp), set(p.accepting))
            attrs["mecs"] = len(mecs.components)
            attrs["accepting_states"] = sum(len(c.states) for c in mecs.components
                                            if c.accepting)
        lr = inputs.learners[0]
        # a fixed walk through the on-the-fly product, then the same pairs
        # and actions sampled again under the timer
        env = OnTheFlyProductEnv(lr.model, lr.automaton)
        walk_rng = RngHandle(0, "exploration")
        pair, env_steps = env.reset(), []
        for _ in range(calls):
            actions = env.actions(pair)
            act = actions[walk_rng.integers(len(actions))]
            env_steps.append((pair, act))
            pair, _ = env.sample(pair, act, walk_rng)
        rng = RngHandle(1, "trajectory")
        with tracer.span("simulate.env_sample", calls=calls):
            for pair, act in env_steps:
                env.sample(pair, act, rng)
        m = lr.model
        model_steps = [(s, a) for s in range(m.num_states) for a in m.enabled(s)]
        model_steps = (model_steps * (calls // len(model_steps) + 1))[:calls]
        with tracer.span("simulate.sample_transition", calls=calls):
            for s, a in model_steps:
                sample_transition(m, s, a, rng)
        with tracer.span("simulate.rng_uniform", calls=calls):
            for _ in range(calls):
                rng.uniform()


# ---------------------------------------------------------------------------
# Checks against computations made apart from the checker

TIE = 1e-9      # exact evaluations of the same schedule / brute force
LP_TOL = 1e-6   # HiGHS solutions


def _first(rounds: List[Round], key) -> Optional[np.ndarray]:
    for r in rounds:
        if key in r.values:
            return r.values[key]
    return None


def _need(rounds: List[Round], key, bad: List[str]) -> Optional[np.ndarray]:
    """The first round's value under ``key``; a problem if no round has it,
    that is, if the call that makes it failed every time."""
    v = _first(rounds, key)
    if v is None:
        bad.append(f"{key}: no value to check, the call failed in every round")
    return v


def _call(bad: List[str], what: str, fn: Callable, *args):
    """``fn(*args)`` made by a check; a problem, and None, if it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        bad.append(f"{what}: {type(exc).__name__}: {exc}")
        return None


def common_checks(inputs: Inputs, rounds: List[Round]) -> List[str]:
    bad = []
    keys = {k for r in rounds for k in r.values}
    # deterministic calls on fixed inputs give the same answer every round
    for key in keys:
        if key[1].startswith("learn_"):
            continue
        ref = _first(rounds, key)
        if any(key in r.values and not np.array_equal(r.values[key], ref)
               for r in rounds):
            bad.append(f"{key}: differs between rounds")
    optimum: Dict[Tuple[str, str], float] = {}
    for case in inputs.cases:
        p = case.product
        exact = {sem for sem, _ in case.exact}
        for sem in ("psem", "esem"):
            if sem in exact:
                opt = _need(rounds, (case.name, sem), bad)
            elif case.oracle:
                res = _call(bad, f"{case.name}: {sem} optimum", OPTIMAL[sem], p)
                opt = None if res is None else res.values
            else:
                continue
            if opt is None:
                continue
            optimum[(case.name, sem)] = float(opt[p.ctmdp.initial])
            if sem in exact:
                graded = _need(rounds, (case.name, f"{sem}_of"), bad)
                if graded is not None and np.max(np.abs(graded - opt)) > TIE:
                    bad.append(f"{case.name}: grading the {sem} schedule gives "
                               f"{graded[p.ctmdp.initial]!r}, optimum "
                               f"{opt[p.ctmdp.initial]!r}")
            if case.oracle:
                brute = _need(rounds, (case.name, f"brute_{sem}"), bad)
                if brute is not None and abs(
                        brute[0] - optimum[(case.name, sem)]) > TIE:
                    bad.append(f"{case.name}: {sem} optimum "
                               f"{optimum[(case.name, sem)]!r} but best pure "
                               f"schedule {brute[0]!r}")
    for lr in inputs.learners:
        for obj, sem in SEMANTICS.items():
            if lr.product is _case(inputs, lr.name).product:
                best = optimum.get((lr.name, sem))
            else:
                res = _call(bad, f"{lr.name}: {sem} optimum", OPTIMAL[sem],
                            lr.product)
                best = None if res is None else res.value
            if _need(rounds, (lr.name, f"learn_{obj}"), bad) is None \
                    or best is None:
                continue
            for r in rounds:
                v = r.values.get((lr.name, f"learn_{obj}"))
                if v is not None and v[0] > best + TIE:
                    bad.append(f"{lr.name}: learned {obj} schedule scores "
                               f"{v[0]!r} above the optimum {best!r}")
    return bad


def _case(inputs: Inputs, name: str) -> Case:
    return next(c for c in inputs.cases if c.name == name)


def check_polling(inputs: Inputs, rounds: List[Round]) -> List[str]:
    bad = []
    for case, k in zip(inputs.cases, (POLLING_K, SMALL_K)):
        want = families.polling_product_states(k)
        if case.product.num_states != want:
            bad.append(f"{case.name}: {case.product.num_states} product "
                       f"states, expected {want}")
    p = inputs.cases[0].product
    lp = _call(bad, "polling: average-reward LP",
               reference.average_reward_lp, p.ctmdp, p.accepting)
    esem = _need(rounds, ("polling", "esem"), bad)
    if esem is not None and lp is not None \
            and abs(esem[p.ctmdp.initial] - lp) > LP_TOL:
        bad.append(f"polling: ESem {esem[p.ctmdp.initial]!r}, LP gain {lp!r}")
    # serving drains the queues, so idle recurs almost surely
    psem = _need(rounds, ("polling", "psem"), bad)
    if psem is not None and np.max(np.abs(psem - 1.0)) > TIE:
        bad.append(f"polling: PSem below 1 ({psem.min()!r})")
    return bad


def check_hazard(inputs: Inputs, rounds: List[Round]) -> List[str]:
    bad = []
    for case, n in zip(inputs.cases, (HAZARD_N, SMALL_N)):
        if case.product.num_states != n + 4:
            bad.append(f"{case.name}: {case.product.num_states} product "
                       f"states, expected {n + 4}")
        want = _call(bad, f"{case.name}: max-reach LP",
                     lambda: reference.hazard_max_reach(n, **inputs.params))
        if want is None:
            continue
        # the dock is absorbing, so both semantics equal the chance to reach it
        for sem in ("psem", "esem"):
            if case.exact:
                got = _need(rounds, (case.name, sem), bad)
                if got is None:
                    continue
            else:
                res = _call(bad, f"{case.name}: {sem} optimum", OPTIMAL[sem],
                            case.product)
                if res is None:
                    continue
                got = res.values
            v = got[case.product.ctmdp.initial]
            if abs(v - want) > LP_TOL:
                bad.append(f"{case.name}: {sem} {v!r}, max-reach LP {want!r}")
    return bad


def check_learn(inputs: Inputs, rounds: List[Round]) -> List[str]:
    bad = []
    initial = _case(inputs, "riskreward").product.ctmdp.initial
    # acceptance criteria 1-2: the optimum on at least two thirds of the seeds
    for obj, want, tol in (("sat", 1.0, 1e-9), ("exp", 0.9, 0.01)):
        opt = _need(rounds, ("riskreward", SEMANTICS[obj]), bad)
        if opt is not None and abs(opt[initial] - want) > 1e-6:
            bad.append(f"riskreward: exact {obj} optimum is not {want}")
        hits = sum(abs(r.values[("riskreward", f"learn_{obj}")][0] - want) <= tol
                   for r in rounds if ("riskreward", f"learn_{obj}") in r.values)
        if 3 * hits < 2 * len(rounds):
            bad.append(f"riskreward: learned {obj} optimum in {hits} of "
                       f"{len(rounds)} rounds")
    return bad


def check_oracle(inputs: Inputs, rounds: List[Round]) -> List[str]:
    # GF acc on the labelled model accepts exactly the runs that visit the
    # marked states infinitely often
    bad = []
    for lr in inputs.learners:
        marked = _need(rounds, (lr.name, "psem"), bad)
        if marked is None:
            continue
        via = _call(bad, f"{lr.name}: PSem via GF acc", psem_optimal,
                    lr.product)
        if via is None:
            continue
        via = via.value
        want = marked[_case(inputs, lr.name).product.ctmdp.initial]
        if abs(via - want) > TIE:
            bad.append(f"{lr.name}: PSem {want!r} marked, {via!r} via GF acc")
    return bad


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Tracer], Inputs]
    check: Callable[[Inputs, List[Round]], List[str]]


WORKLOADS = {w.name: w for w in (
    Workload("esem-polling", setup_polling, check_polling),
    Workload("psem-hazard", setup_hazard, check_hazard),
    Workload("learn", setup_learn, check_learn),
    Workload("oracle-small", setup_oracle, check_oracle),
)}
