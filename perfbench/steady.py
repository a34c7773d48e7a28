#!/usr/bin/env python3
"""Steadiness mode: runs one workload k times, each with another seed, and
prints for every metric its median, quartiles and spread (distance between
the first and third quartile as a share of the median) against the bound
that BENCHMARK.json records for it.

    python3 perfbench/steady.py --workload campaign-fast [--runs 10]
        [--first-seed 1] [--seconds N] [--trace 0|1]

`--workload all` runs every workload BENCHMARK.json bounds, in turn; a
workload it leaves out, such as `paper-sa`, can still be named. A metric is
"steady" when its spread is at most a third of its bound, "within bound" up
to the bound, and
"UNSTEADY" beyond it; setup_s is exempt from the spread rule. Quartiles are
Python's statistics.quantiles(values, n=4). Exits 1 if a run fails its
checks or an end-to-end metric other than setup_s is UNSTEADY.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        return None
    result = json.loads(lines[-1])
    return result if result["correct"] else None


def report(workload, values, bounds):
    print(f"\n{workload}: {len(next(iter(values.values())))} runs")
    print(f"{'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
    unsteady = False
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
        bound = bounds.get(name)
        if bound is None:
            verdict = ""
        elif name == "setup_s":
            verdict = "exempt"
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "UNSTEADY"
            unsteady = True
        b = f"{bound:.3f}" if bound is not None else "-"
        print(f"{name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {b:>6}  {verdict}")
    return unsteady


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' for every bounded workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failed = False
    unsteady = False
    for workload in names if args.workload == "all" else [args.workload]:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds, args.trace)
            if result is None:
                print(f"{workload} seed {seed}: FAILED", flush=True)
                failed = True
                continue
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            brief = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                              if k in bounds)
            print(f"{workload} seed {seed}: {brief}", flush=True)
        if values and len(next(iter(values.values()))) >= 2:
            unsteady |= report(workload, values, bounds if args.trace == 0 else {})
    sys.exit(1 if failed or unsteady else 0)


if __name__ == "__main__":
    main()
