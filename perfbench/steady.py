"""Steadiness check: run each workload with several seeds and report every
end-to-end metric's spread against its bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 10 --first-seed 11 \
        --against perfbench/out/steady-esem-polling+psem-hazard+learn+oracle-small-1-10.json

The spread is the distance between the first and third quartile of a
metric's values (``statistics.quantiles(values, n=4)``) as a share of their
median.  ``--against`` also compares each median with the one stored in an
earlier result file, as a share of the earlier median, signed so that
positive means worse.  Every run lasts BENCHMARK.json's ``run_seconds``.
The set is steady if every run is correct with no failed operation, every
spread (``setup_s`` too) is within its metric's bound and, with
``--against``, no median is worse by more than the bound.  Runs go one at a
time; the results are written to
``perfbench/out/steady-<workloads>-<first seed>-<last seed>.json``, never
over the ``--against`` file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.runs)
    dest = HERE / "out" / (f"steady-{'+'.join(workloads)}-"
                          f"{seeds[0]}-{seeds[-1]}.json")
    if args.against and args.against.resolve() == dest.resolve():
        print(f"{dest.relative_to(ROOT)} would overwrite the --against file; "
              f"copy that file elsewhere first", file=sys.stderr)
        return 2

    results = {}
    for wl in workloads:
        runs = []
        for seed in seeds:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{wl} seed {seed}: exit {proc.returncode}")
                return 1
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(out)
            print(f"{wl} seed {seed}: {time.perf_counter() - t0:.0f} s "
                  f"correct={out['correct']} "
                  f"failed={out['failed']}/{out['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()),
                  flush=True)
        results[wl] = runs

    earlier = json.loads(args.against.read_text()) if args.against else None
    print(f"\n{'workload':14} {'metric':18} {'median':>11} {'spread':>7} "
          f"{'bound':>6}" + (f" {'shift':>7}" if earlier else ""))
    ok = True
    for wl, runs in results.items():
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            line = (f"{wl:14} {name:18} {med:11.5g} {spread(values):7.3f} "
                    f"{metric['bound']:6.2f}")
            ok &= spread(values) <= metric["bound"]
            if earlier and wl in earlier:
                before = statistics.median(
                    r["metrics"][name]["value"] for r in earlier[wl])
                shift = (med - before) / before
                if metric["better"] == "higher":
                    shift = -shift
                ok &= shift <= metric["bound"]
                line += f" {shift:+7.3f}"
            print(line)
        print(f"{wl:14} failed {sorted({r['failed'] for r in runs})}, "
              f"correct {sorted({r['correct'] for r in runs})}")
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps(results))
    print(f"\n{'steady' if ok else 'NOT steady'}; runs in "
          f"{dest.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
