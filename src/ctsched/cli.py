"""Command-line interface.

Subcommands: ``learn`` (train and grade a schedule), ``check`` (exact values,
optimal or for a given schedule), ``simulate`` (trajectory dump), ``product``
(dump the product model), ``bench`` (run the bundled models and emit the
result table).

Exit codes: 0 success, 2 parse error, 3 validation error, 4 numeric
non-convergence, a singular linear solve, or a value the checker computes
outside [0, 1].
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import data as bundled
from .automata import BuchiAutomaton
from .check import (CheckResult, ConvergenceError, esem_of, esem_optimal,
                    psem_of, psem_optimal)
from .formats import (BenchRow, HoaError, HoaSource, ModelError, ModelSource,
                      emit_result_table, parse_hoa, parse_model,
                      serialize_model)
from .learn import Hyperparams, accepting_dwell, learn_exp, learn_sat
from .model import Ctmdp, CtmdpError
from .product import ProductCtmdp, Schedule, action_name, build_product
from .simulate import SEED_LIMIT, RngHandle, race

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4


class CliError(Exception):
    def __init__(self, msg: str, code: int):
        super().__init__(msg)
        self.code = code


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}", EXIT_VALIDATION)


def _load_model(path: str) -> Ctmdp:
    try:
        return parse_model(ModelSource(_read(path), origin=path))
    except ModelError as exc:
        raise CliError(f"{path}:{exc}" if exc.line else f"{path}: {exc}",
                       EXIT_PARSE)


def _load_automaton(path: str) -> BuchiAutomaton:
    try:
        return parse_hoa(HoaSource(_read(path), origin=path))
    except HoaError as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE)


def _build(args) -> Tuple[Ctmdp, BuchiAutomaton, ProductCtmdp]:
    m = _load_model(args.model)
    a = _load_automaton(args.automaton)
    try:
        p = build_product(m, a)
    except CtmdpError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    return m, a, p


# ---------------------------------------------------------------------------
# Schedule files: CSV with columns s,q,action,qnext (ids for s/q/qnext,
# action by name)

def write_schedule(m: Ctmdp, schedule: Schedule, out) -> None:
    """Write ``schedule``, a schedule of a product over ``m``."""
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["s", "q", "action", "qnext"])
    for (s, q), (act, q2) in sorted(schedule.items()):
        if s is None or act is None:
            continue
        w.writerow([s, q, m.action_names[act], q2])


def read_schedule(m: Ctmdp, p: ProductCtmdp, path: str) -> Schedule:
    """The schedule of product ``p`` over ``m`` in the file at ``path``."""
    action_ids = {name: i for i, name in enumerate(m.action_names)}
    known = p.state_index()
    choices = p.action_index()
    out: Schedule = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}", EXIT_VALIDATION)
    if not rows or rows[0] != ["s", "q", "action", "qnext"]:
        raise CliError(f"{path}: expected header s,q,action,qnext", EXIT_PARSE)
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            s, q, act_name, q2 = row    # other than four fields: ValueError
            s, q, q2 = int(s), int(q), int(q2)
        except ValueError:
            raise CliError(f"{path}:{ln}: malformed schedule row", EXIT_PARSE)
        if (s, q) not in known:
            raise CliError(f"{path}:{ln}: unknown product state ({s},{q})",
                           EXIT_VALIDATION)
        if (s, q) in out:
            raise CliError(f"{path}:{ln}: product state ({s},{q}) is "
                           f"scheduled twice", EXIT_VALIDATION)
        if act_name not in action_ids:
            raise CliError(f"{path}:{ln}: unknown action '{act_name}'",
                           EXIT_VALIDATION)
        choice = (action_ids[act_name], q2)
        if (known[(s, q)], choices.get(choice, -1)) not in p.ctmdp.choices.row:
            raise CliError(f"{path}:{ln}: action '{act_name}' with qnext {q2} "
                           f"is not enabled at product state ({s},{q})",
                           EXIT_VALIDATION)
        out[(s, q)] = choice
    return out


def _check_seed(seed: int, runs: int = 1) -> None:
    """Seeds ``seed`` to ``seed + runs - 1`` must fit an ``RngHandle``."""
    for s, name in ((seed, "--seed"), (seed + runs - 1, "--seed + --runs - 1")):
        if not 0 <= s < SEED_LIMIT:
            raise CliError(f"{name} must lie in [0, 2**32), got {s}",
                           EXIT_VALIDATION)


def _hyperparams(args) -> Hyperparams:
    if args.runs < 1:
        raise CliError(f"--runs must be at least 1, got {args.runs}",
                       EXIT_VALIDATION)
    _check_seed(args.seed, args.runs)
    try:
        return Hyperparams(gamma=args.gamma, beta=args.beta,
                           epsilon=args.epsilon, zeta=args.zeta,
                           ep_len=args.ep_len, ep_n=args.episodes,
                           tol=args.tol)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)


# ---------------------------------------------------------------------------
# Subcommands

def _objective(name: str):
    """The learner, optimizer and grader of objective ``sat`` or ``exp``."""
    if name == "sat":
        return learn_sat, psem_optimal, psem_of
    return learn_exp, esem_optimal, esem_of


def _learn_and_grade(m: Ctmdp, a: BuchiAutomaton, p: ProductCtmdp,
                     objective: str, hp: Hyperparams,
                     args) -> Tuple[Dict[str, float], Schedule]:
    """The objective's BenchRow cells (exact optimum, mean graded value and
    mean time to learn and grade, over the seeds of ``--seed`` and
    ``--runs``) and the best schedule learned."""
    learn, optimize, grade = _objective(objective)
    exact = optimize(p).value
    values, times, schedules = [], [], []
    for seed in range(args.seed, args.seed + args.runs):
        t0 = time.perf_counter()
        schedules.append(learn(m, a, hp, seed=seed).schedule)
        values.append(grade(p, schedules[-1]).value)
        times.append(time.perf_counter() - t0)
    return {f"{objective}_prob": exact, f"est_{objective}": np.mean(values),
            f"time_{objective}": np.mean(times)}, schedules[np.argmax(values)]


def cmd_learn(args) -> int:
    m, a, p = _build(args)
    hp = _hyperparams(args)
    # opened before any seed trains; appending keeps the file if a run fails
    with _output(args.schedule_out, "a") as out:
        cells, best = _learn_and_grade(m, a, p, args.objective, hp, args)
        if args.schedule_out:
            out.truncate(0)
            write_schedule(m, best, out)
    name = args.model.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    row = BenchRow(name=name, states=m.num_states, prod=p.num_states, **cells)
    sys.stdout.write(emit_result_table([row], fmt=args.format))
    return 0


def _output(path: Optional[str], mode: str = "w"):
    """A context giving the file at ``path`` opened in ``mode``, or stdout
    (left open) if there is no path."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}", EXIT_VALIDATION)


def _values_csv(p: ProductCtmdp, result: CheckResult, out) -> None:
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["state", "s", "q", "value"])
    for i, (s, q) in enumerate(p.pairs):
        w.writerow([p.ctmdp.state_names[i],
                    "" if s is None else s,
                    "" if q is None else q,
                    f"{result.values[i]:.9g}"])


def cmd_check(args) -> int:
    m, a, p = _build(args)
    _, optimize, grade = _objective(args.objective)
    # both files open before the solve, the schedule's first, so a bad path
    # exits before any output; appending keeps them if the solve fails
    with _output(args.schedule_out, "a") as sched, \
            _output(args.out, "a") as out:
        result = (grade(p, read_schedule(m, p, args.schedule))
                  if args.schedule else optimize(p))
        if args.out:
            out.truncate(0)
        _values_csv(p, result, out)
        label = "PSem" if args.objective == "sat" else "ESem"
        sys.stdout.write(f"# {label}(initial) = {result.value:.9g}\n")
        if args.schedule_out and result.schedule is not None:
            sched.truncate(0)
            write_schedule(m, result.schedule, sched)
    return 0


def cmd_simulate(args) -> int:
    _check_seed(args.seed)
    if args.steps < 0:
        raise CliError(f"--steps must be non-negative, got {args.steps}",
                       EXIT_VALIDATION)
    m, _, p = _build(args)
    schedule = read_schedule(m, p, args.schedule) if args.schedule else {}
    acts, succ, cum, names = p.acts, p.succ, p.cum, p.ctmdp.state_names
    rng = RngHandle(args.seed, "trajectory")
    with _output(args.out) as out:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["step", "state", "action", "next", "dwell", "reward"])
        i = p.ctmdp.initial
        for step in range(args.steps):
            choice = schedule.get(p.pairs[i])
            k = acts[i].index(choice) if choice in acts[i] else 0
            i2, dwell = race(succ[i][k], cum[i][k], rng)
            r = accepting_dwell(i in p.accepting, dwell)
            w.writerow([step, names[i], action_name(m, acts[i][k]),
                        names[i2], f"{dwell:.9g}", f"{r:.9g}"])
            i = i2
    return 0


def cmd_product(args) -> int:
    m, a, p = _build(args)
    name = args.model.rsplit("/", 1)[-1].rsplit(".", 1)[0] + "_product"
    text = serialize_model(p.ctmdp, name=name)
    lines = [text.rstrip("\n")]
    lines.append(f"# states: {p.num_states}")
    lines.append("# accepting: " +
                 " ".join(p.ctmdp.state_names[i] for i in sorted(p.accepting)))
    with _output(args.out) as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_bench(args) -> int:
    hp = _hyperparams(args)
    rows = []
    for model_name, aut_name in bundled.BENCH_PAIRS:
        m = bundled.load_model(model_name)
        a = bundled.load_automaton(aut_name)
        p = build_product(m, a)
        cells: Dict[str, float] = {}
        for objective in ("sat", "exp"):
            cells.update(_learn_and_grade(m, a, p, objective, hp, args)[0])
        rows.append(BenchRow(name=model_name, states=m.num_states,
                             prod=p.num_states, **cells))
    sys.stdout.write(emit_result_table(rows, fmt=args.format))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

def _add_io_flags(sp):
    sp.add_argument("--model", required=True, help="path to a .ctmdp file")
    sp.add_argument("--automaton", required=True,
                    help="path to a .hoa objective")


def _add_learn_flags(sp, runs: int):
    hp = Hyperparams()
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--runs", type=int, default=runs)
    sp.add_argument("--format", choices=("csv", "table"), default="csv")
    sp.add_argument("--zeta", type=float, default=hp.zeta)
    sp.add_argument("--episodes", type=int, default=hp.ep_n)
    sp.add_argument("--ep-len", dest="ep_len", type=int, default=hp.ep_len)
    sp.add_argument("--beta", type=float, default=hp.beta)
    sp.add_argument("--epsilon", type=float, default=hp.epsilon)
    sp.add_argument("--gamma", type=float, default=hp.gamma,
                    help="per-step discount; default depends on the objective")
    sp.add_argument("--tol", type=float, default=hp.tol)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ctsched",
        description="Learn and verify CTMDP schedules for omega-regular "
                    "objectives.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("learn", help="train a schedule and grade it exactly")
    _add_io_flags(sp)
    sp.add_argument("--objective", choices=("sat", "exp"), default="sat")
    _add_learn_flags(sp, runs=1)
    sp.add_argument("--schedule-out", dest="schedule_out")
    sp.set_defaults(func=cmd_learn)

    sp = sub.add_parser("check", help="exact values, optimal or for a schedule")
    _add_io_flags(sp)
    sp.add_argument("--objective", choices=("sat", "exp"), default="sat")
    sp.add_argument("--schedule", help="schedule CSV to evaluate")
    sp.add_argument("--out", help="write per-state values CSV here")
    sp.add_argument("--schedule-out", dest="schedule_out")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("simulate", help="dump a product trajectory as CSV")
    _add_io_flags(sp)
    sp.add_argument("--schedule", help="schedule CSV to follow")
    sp.add_argument("--steps", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("product", help="dump the product model")
    _add_io_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_product)

    sp = sub.add_parser("bench", help="run the bundled models")
    _add_learn_flags(sp, runs=3)
    sp.set_defaults(func=cmd_bench)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    except CtmdpError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except np.linalg.LinAlgError as exc:
        sys.stderr.write(f"error: {_failing_call(exc)}: {exc}\n")
        return EXIT_NUMERIC


def _failing_call(exc: BaseException) -> str:
    """Innermost ctsched frame of the traceback, as ``module.function``."""
    frame = [f for f in traceback.extract_tb(exc.__traceback__)
             if f.filename.startswith(os.path.dirname(__file__))][-1]
    return f"{os.path.basename(frame.filename)[:-3]}.{frame.name}"


if __name__ == "__main__":
    sys.exit(main())
