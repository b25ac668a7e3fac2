#!/usr/bin/env python3
"""Builds lamp_benchmark from this checkout and runs one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark project (benchmark/CMakeLists.txt, which builds the library from
src/) into .bench_build/; later calls only bring that build up to date.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. The exit code is the benchmark's, or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "lamp_benchmark")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "lamp_benchmark",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if not build():
        print("run.py: building lamp_benchmark failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([
        os.path.join(BUILD, "lamp_benchmark"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
