#!/usr/bin/env python3
"""Reports whether two sets of lamp_benchmark results agree.

    python3 benchmark/agree.py SET_A SET_B

A set is a directory holding one file per run, SET/<workload>/<seed>.json,
each the standard output of `benchmark/run.py --workload <workload> --seed
<seed> ...` (only its last line, the JSON result, is read). For every
workload and metric the report gives each set's median and spread (the
distance between the first and third quartile, as a share of the median)
and the change of the median from A to B.

A metric with a bound in BENCHMARK.json agrees when its median moved by at
most that bound, in either direction, and, setup_s apart, its spread in
each set is within the bound too. A count (unit tuples, bytes, rows or
count) does not depend on the host, so it must also read the same in both
sets on every seed they share. Every run must have passed its output check.
The exit code is 0 when everything agrees and 1 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNT_UNITS = {"tuples", "bytes", "rows", "count"}


def load_set(path):
    """Returns {workload: {seed: result}} for the runs under path."""
    runs = {}
    for workload in sorted(os.listdir(path)):
        directory = os.path.join(path, workload)
        if not os.path.isdir(directory):
            continue
        for name in sorted(os.listdir(directory)):
            seed, ext = os.path.splitext(name)
            if ext != ".json":
                continue
            with open(os.path.join(directory, name)) as f:
                lines = [line for line in f.read().splitlines() if line.strip()]
            if not lines:
                sys.exit(f"agree.py: {directory}/{name} is empty")
            runs.setdefault(workload, {})[seed] = json.loads(lines[-1])
    return runs


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def compare(workload, a, b, bounds):
    """Prints one workload's rows; returns False on any disagreement."""
    ok = True
    for label, runs in (("A", a), ("B", b)):
        for seed, result in sorted(runs.items()):
            if not result["correct"] or result["failed"] != 0:
                print(f"{workload}: set {label} seed {seed} failed "
                      f"{result['failed']} of {result['attempted']} queries")
                ok = False
    shared = sorted(set(a) & set(b))
    names = list(next(iter(a.values()))["metrics"])
    for name in names:
        values_a = [r["metrics"][name]["value"] for r in a.values()]
        values_b = [r["metrics"][name]["value"] for r in b.values()]
        unit = next(iter(a.values()))["metrics"][name]["unit"]
        median_a = statistics.median(values_a)
        median_b = statistics.median(values_b)
        change = (median_b - median_a) / abs(median_a) if median_a else (
            0.0 if median_b == median_a else float("inf"))
        bound = bounds.get(name)
        verdicts = []
        if bound is not None and abs(change) > bound:
            verdicts.append(f"median moved more than {bound:.1%}")
        if bound is not None and name != "setup_s" and max(
                spread(values_a), spread(values_b)) > bound:
            verdicts.append(f"spread above {bound:.1%}")
        if unit in COUNT_UNITS:
            differ = [s for s in shared
                      if a[s]["metrics"][name]["value"]
                      != b[s]["metrics"][name]["value"]]
            if differ:
                verdicts.append("count differs on seed " + ",".join(differ))
        ok = ok and not verdicts
        bound_text = "-" if bound is None else f"{bound:.1%}"
        print(f"{workload:18} {name:30} {median_a:14.6g} {median_b:14.6g} "
              f"{change:+8.2%} {bound_text:>6} {spread(values_a):7.2%} "
              f"{spread(values_b):7.2%}  {'; '.join(verdicts) or 'agree'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set_a")
    parser.add_argument("set_b")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    a = load_set(args.set_a)
    b = load_set(args.set_b)
    print(f"{'workload':18} {'metric':30} {'median A':>14} {'median B':>14} "
          f"{'change':>8} {'bound':>6} {'sprd A':>7} {'sprd B':>7}  verdict")
    ok = True
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            print(f"{workload}: only in one set")
            ok = False
            continue
        ok = compare(workload, a[workload], b[workload], bounds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
