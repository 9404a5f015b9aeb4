#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's median and
quartile spread (Q3 - Q1 as a share of the median), the figure the
benchmark's bounds are judged against.

    python3 perfbench/spread.py --workload infer --seeds 1-10 [--seconds 10]
                                [--trace 0] [--log-dir DIR]

Each run goes through perfbench/run.py, which builds first (incrementally).
--log-dir keeps each run's stderr (raw medians, set-up detail) as
DIR/<workload>-<seed>.log.
"""
import argparse
from fractions import Fraction
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log-dir")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    base = [sys.executable, os.path.join(root, "perfbench", "run.py")]
    values = {}
    units = {}
    fail_shares = set()
    for seed in parse_seeds(args.seeds):
        cmd = base + ["--workload", args.workload, "--seed", str(seed),
                      "--seconds", args.seconds, "--trace", args.trace]
        log = subprocess.DEVNULL
        if args.log_dir:
            os.makedirs(args.log_dir, exist_ok=True)
            log = open(os.path.join(args.log_dir,
                                    f"{args.workload}-{seed}.log"), "w")
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=log, text=True)
        if args.log_dir:
            log.close()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            sys.exit(1)
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect", file=sys.stderr)
            sys.exit(1)
        fail_shares.add(Fraction(result["failed"], result["attempted"]))
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            row.append(f"{name}={m['value']:.4f}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    print(f"\n{'metric':34} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.2%}"
              f"  {units[name]}")
    print("failed shares: " + ", ".join(str(f) for f in sorted(fail_shares)))


if __name__ == "__main__":
    main()
