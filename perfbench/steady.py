#!/usr/bin/env python3
"""Steadiness tool for the perfbench benchmark.

Runs one workload several times through perfbench/run.py and prints, for
every end-to-end metric, the median, the quartiles, the spread and the bound
that BENCHMARK.json fixes for it.  Metrics whose spread exceeds the bound are
flagged.  Run from the root of a checkout.

Same seed, repeated (run-to-run noise), then again on a second seed so a
claim can be checked on a seed not used while writing it:

    python3 perfbench/steady.py --workload sweep --seeds 1 2 --runs 5

One run per seed over ten seeds -- the spread the benchmark's acceptance
uses, (Q3 - Q1) / median from statistics.quantiles(values, n=4):

    python3 perfbench/steady.py --workload serve_cold --across 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"steady: run failed: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"steady: incorrect run (seed {seed}): {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def report(title, runs, bounds, spread_name, spread):
    print(f"\n{title}: {len(runs)} runs")
    print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {spread_name:>10} "
          f"{'bound':>6}  flag")
    for name, bound in bounds.items():
        values = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        s = spread(values, q1, q3) / med if med else 0.0
        flag = "OVER BOUND" if s > bound else ("over bound/3" if s > bound / 3 else "")
        print(f"  {name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {s:>10.4f} {bound:>6.3f}  {flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--runs", type=int, default=5, help="runs per seed")
    ap.add_argument("--across", type=int, default=0,
                    help="instead: one run on each of this many seeds (--seeds gives the first)")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", help="append every run's metrics to this JSON-lines file")
    a = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    def record(seed, metrics):
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
        if a.out:
            with open(a.out, "a") as f:
                row = {"workload": a.workload, "seed": seed, "metrics": metrics}
                f.write(json.dumps(row) + "\n")
        return metrics

    if a.across:
        seeds = range(a.seeds[0], a.seeds[0] + a.across)
        runs = [record(s, run_once(a.workload, s, seconds)) for s in seeds]
        report(f"{a.workload}, one run per seed {seeds.start}..{seeds.stop - 1}", runs, bounds,
               "iqr/med", lambda v, q1, q3: q3 - q1)
        return
    for seed in a.seeds:
        runs = [record(seed, run_once(a.workload, seed, seconds)) for _ in range(a.runs)]
        report(f"{a.workload}, seed {seed}", runs, bounds, "range/med",
               lambda v, q1, q3: max(v) - min(v))


if __name__ == "__main__":
    main()
