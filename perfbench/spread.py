#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload small-4dc --seeds 10 [--first-seed 1]
                                [--seconds 10] [--trace 0]

For every metric it prints the median over the seeds and the distance
between the first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of that median, next to the metric's bound from
BENCHMARK.json. A spread must stay within its bound (``setup_s`` is
exempt); a steady benchmark keeps it below a third of the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = json.load(open("BENCHMARK.json"))["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: not correct\n{out.stdout}")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in range(a.first_seed, a.first_seed + a.seeds):
        result = run(a.workload, seed, seconds, a.trace)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print(f"\n{'metric':<28} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            ratio = spread / bound
            worst = max(worst, ratio)
            flag = "  OVER BOUND" if ratio > 1 else ("  over 1/3" if ratio > 1 / 3 else "")
        print(f"{name:<28} {med:>14.6g} {spread:>11.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    if a.trace == 0:
        print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
