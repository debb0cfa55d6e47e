"""ctsched benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload esem-polling --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The run sets its inputs up several times, then runs whole
rounds of the workload's calls, one at a time, until the next round would end
after ``--seconds`` (and at least MIN_ROUNDS rounds), and checks every
output.  Times are scaled to a reference host speed (clock.py).  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics: ``setup_s`` is the median set-up, the others medians over rounds.
With ``--trace 1`` rounds alternate between traced and untraced, the spans
go to ``perfbench/out/trace-<workload>-<seed>.json`` and the last line
carries the per-layer metrics derived from them.  README.md has the details.
"""
from __future__ import annotations

import os

# one BLAS/OpenMP thread: on two cores a second thread makes dense solves
# slower as often as faster and changes their last digits
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 7        # set-ups per run, at least ...
SETUP_MIN_S = 1.0     # ... and until they took this long together
MIN_ROUNDS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ctsched" / "__init__.py").is_file():
        print(f"perfbench: no ctsched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import spans
    from clock import Clock
    from workloads import WORKLOADS, common_checks, extras, run_round

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    # the metrics to report, with their units, as BENCHMARK.json lists them
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in bench["per_layer" if args.trace else "end_to_end"]}
    tracer = spans.Tracer(bool(args.trace))
    clock = Clock()

    setup_times = []    # one {"setup_s": scaled seconds} per set-up
    spent = 0.0
    while len(setup_times) < SETUP_REPS or spent < SETUP_MIN_S:
        t0 = time.perf_counter()
        with tracer.span("setup"):
            inputs = wl.setup(args.seed, tracer)
        seconds = time.perf_counter() - t0
        setup_times.append({})
        clock.add(setup_times[-1], "setup_s", seconds)
        spent += seconds
    clock.flush()

    # traced and untraced rounds alternate in pairs that share a learner
    # seed, so their round times compare like with like
    per_seed = 2 if args.trace else 1
    min_rounds = MIN_ROUNDS * per_seed
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or (
            time.perf_counter() - start
            + statistics.median(r.wall for r in rounds) <= args.seconds):
        i = len(rounds)
        tracer.enabled = bool(args.trace) and i % 2 == 0
        rounds.append(run_round(inputs, i // per_seed, tracer, clock))
    tracer.enabled = bool(args.trace)

    problems = list(dict.fromkeys(
        common_checks(inputs, rounds) + wl.check(inputs, rounds)))
    for msg in problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    if args.trace:
        extras(inputs, tracer)
        metrics = spans.per_layer(tracer.spans)
        traced = [r.wall for r in rounds[0::2]]
        plain = [r.wall for r in rounds[1::2]]
        metrics["bench.calibration_s"] = statistics.median(clock.kernel_times)
        metrics["trace.overhead_ratio"] = statistics.median(
            t / p for t, p in zip(traced, plain))
        out = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(out, {"workload": args.workload, "seed": args.seed,
                           "rounds": len(rounds),
                           "round_wall_s": [r.wall for r in rounds]})
        print(f"perfbench: {len(tracer.spans)} spans written to "
              f"{out.relative_to(ROOT)}", file=sys.stderr)
    else:
        def med(name):
            return statistics.median(r.times[name] for r in rounds)
        metrics = {
            "setup_s": statistics.median(t["setup_s"] for t in setup_times),
            "esem_opt_s": med("esem_opt_s"),
            "psem_opt_s": med("psem_opt_s"),
            "grade_s": med("grade_s"),
            "learn_s": med("learn_s"),
            "learn_steps_per_s": statistics.median(
                r.steps / r.times["learn_s"] for r in rounds),
            "oracle_s": med("oracle_s"),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if set(metrics) != set(wanted):
        print(f"perfbench: metrics {sorted(metrics)} do not match "
              f"BENCHMARK.json's {sorted(wanted)}", file=sys.stderr)
        return 2
    result = {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()}
    print(f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} "
          f"rounds, {attempted} operations, {failed} failed", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
