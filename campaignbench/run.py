#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds the benchmark package in this directory (the WaterWise library from
../src plus campaign_bench) under .bench_build/ at the repository root, runs the
metric-math test, then runs one benchmark:

    python3 campaignbench/run.py --workload borg-steady --seed 1 \
        --seconds 10 --trace 0

campaign_bench's output is passed through; its last line is the JSON result.
Exits nonzero, printing no result, when the build, the test or any
correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "campaignbench")
WORKLOADS = ("borg-steady", "alibaba-peak", "burst-chunked")


def run_quiet(cmd, env):
    """Runs a build step, echoing its output to stderr only on failure."""
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("run.py: step failed: %s\n" % " ".join(cmd))
        sys.exit(proc.returncode or 1)


def build():
    # No compiler cache: the build must read and write only the checkout.
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], env)
    run_quiet(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
              env)
    run_quiet([os.path.join(BUILD, "bench_math_test")], env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build()
    sys.stdout.flush()
    proc = subprocess.run(
        [os.path.join(BUILD, "campaign_bench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", args.trace],
        check=False)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
