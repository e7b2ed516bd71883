#!/usr/bin/env python3
"""Runs the benchmark on several seeds, once or more, and reports each
end-to-end metric's spread: the distance between its first and third
quartile over the seeds, as a share of its median, next to the metric's
bound in BENCHMARK.json. With two or more sets of the same seeds it also
reports how far each later set's median moved from the first set's, as
a share of the first median and of the bound.

Run from the repository root:

    python3 perfbench/spread.py --workload gmeans-text --seeds 1-10 --sets 2

A spread below a third of the bound is steady; `setup_s` has no spread
rule, only a bound on how much its median may worsen from set to set.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_set(bench, workload, seeds, seconds):
    """One run per seed; returns each metric's values in seed order."""
    values = {}
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        started = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        elapsed = time.monotonic() - started
        result = json.loads(out.strip().splitlines()[-1])
        line = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {elapsed:.1f} s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {line}", flush=True)
        if not result["correct"]:
            print(out, file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-5"))
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    medians = []
    worst = 0.0
    for s in range(args.sets):
        print(f"set {s + 1}", flush=True)
        values = run_set(bench, args.workload, args.seeds, seconds)
        medians.append({})
        for name, vals in values.items():
            med = statistics.median(vals)
            medians[-1][name] = med
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{name:16} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:.4f}  bound {bound}  spread/bound {spread / bound:.2f}")
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")

    # Every metric is "lower is better": a positive move is a worsening.
    for s, later in enumerate(medians[1:], start=2):
        for name, med in later.items():
            move = (med - medians[0][name]) / medians[0][name]
            print(f"set {s} vs set 1: {name:16} median moved {move:+.4f}  "
                  f"bound {bounds[name]}  move/bound {move / bounds[name]:+.2f}")


if __name__ == "__main__":
    main()
