#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload collect --seeds 1-10 [--seconds S]

Runs perfbench/run.py once per seed (untraced) and prints, per metric, the
median and the distance between the first and third quartile as a share of
the median (statistics.quantiles(values, n=4)), next to the metric's bound
from BENCHMARK.json. A run that fails or is not correct is reported with its
failed checks and left out; the exit code is then non-zero.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    failures = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or \
                not json.loads(lines[-1])["correct"]:
            failures += 1
            checks = [l for l in proc.stderr.splitlines() if "failed" in l]
            print(f"seed {seed}: exit {proc.returncode}: " +
                  " | ".join(checks[:4]), flush=True)
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    print(f"{'metric':24} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("inf")
        print(f"{name:24} {med:12.5g} {share:11.3f} {bounds.get(name, 0):6.2f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
