#!/usr/bin/env python3
"""Compares two checkouts' lamp_benchmark over alternating pairs of runs.

    python3 tools/ab_pairs.py BASE CHANGE --workloads tc_network,join_hash \\
        --pairs 10 --seconds 2

BASE and CHANGE are checkouts whose benchmark is already built (run
`python3 benchmark/run.py` once in each; it builds into
.bench_build/lamp_benchmark/). Each pair runs both binaries on one workload
with seed 1, one after the other; which side runs first alternates
from pair to pair (BASE first in even pairs), so neither side always gets
the warmer machine.

A run fails the comparison when the binary exits nonzero, reports
"correct": false or reports failed > 0. For every workload and metric the
report gives the two medians, the change of the median in percent, the
parent's spread (the distance between its first and third quartile) and,
for metrics BENCHMARK.json gives a direction, in how many pairs CHANGE was
the better side. The exit code is 0 when every run passed and 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BINARY = os.path.join(".bench_build", "lamp_benchmark", "lamp_benchmark")
SEED = 1


def run_once(checkout, workload, seconds):
    """Runs one benchmark; returns (result dict, error text or None)."""
    proc = subprocess.run(
        [os.path.join(checkout, BINARY), "--workload", workload,
         "--seed", str(SEED), "--seconds", repr(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) > 0:
        return result, (f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    return result, None


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def report(workload, pairs, better):
    """Prints one workload's rows; pairs is a list of (base, change)."""
    print(f"\n{workload} ({len(pairs)} pairs)")
    print(f"  {'metric':<26}{'base median':>14}{'change median':>15}"
          f"{'change':>9}{'base IQR':>12}{'change better':>15}")
    for name in pairs[0][0]["metrics"]:
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        mb, mc = statistics.median(base), statistics.median(change)
        pct = f"{(mc - mb) / abs(mb):+.2%}" if mb != 0 else "n/a"
        wins = ""
        if name in better:
            sign = -1 if better[name] == "lower" else 1
            won = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
            wins = f"{won}/{len(pairs)}"
        print(f"  {name:<26}{mb:>14.6g}{mc:>15.6g}{pct:>9}"
              f"{iqr(base):>12.4g}{wins:>15}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()

    for checkout in (args.base, args.change):
        if not os.access(os.path.join(checkout, BINARY), os.X_OK):
            sys.exit(f"ab_pairs.py: {checkout}/{BINARY} is not built; run "
                     "`python3 benchmark/run.py` there first")
    better = {}
    spec = os.path.join(args.base, "BENCHMARK.json")
    if os.path.exists(spec):
        with open(spec) as f:
            better = {m["name"]: m["better"]
                      for m in json.load(f).get("end_to_end", [])}

    ok = True
    for workload in args.workloads.split(","):
        pairs = []
        for i in range(args.pairs):
            sides = [args.base, args.change]
            results = [None, None]
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                result, error = run_once(sides[side], workload,
                                         args.seconds)
                if error is not None:
                    print(f"ab_pairs.py: {workload} pair {i} {sides[side]}: "
                          f"{error}", file=sys.stderr)
                    ok = False
                results[side] = result
            if None not in results:
                pairs.append(tuple(results))
        if pairs:
            report(workload, pairs, better)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
