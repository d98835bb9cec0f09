#!/usr/bin/env python3
"""Checks the checked-in campaign-benchmark results against the pins.

Every BENCH_campaign_<workload>.json at the repository root holds traced
campaignbench runs of one workload and seed, labelled "parent" and
"change".  This check fails when

  * any run records "correct": false (the benchmark's own checks failed),
  * a "change" run's fingerprint differs from the pin for its workload and
    seed in tools/campaign_fingerprints.txt, or has no pin at all, or
  * a pinned workload has no BENCH_campaign_<workload>.json.

The pin file is the absolute anchor for decision streams; the checked-in
results must describe the program the pins describe.  A change that moves
a decision stream on purpose rewrites the pin and the change run together.

Usage:
  check_bench_pins.py [--root DIR]

Prints every mismatch, then exits nonzero if there was any.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_pins(path: str) -> dict[tuple[str, int], str]:
    """Parses "<workload> <seed> <hash>" lines; '#' starts a comment."""
    pins = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            if len(fields) != 3:
                raise ValueError(f"{path}: malformed pin line {line!r}")
            workload, seed, want = fields
            pins[(workload, int(seed))] = want
    return pins


def check(root: str) -> list[str]:
    pins = read_pins(os.path.join(root, "tools", "campaign_fingerprints.txt"))
    problems = []
    seen = set()
    paths = sorted(glob.glob(os.path.join(root, "BENCH_campaign_*.json")))
    for path in paths:
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        workload, seed = doc["workload"], int(doc["seed"])
        seen.add(workload)
        changes = 0
        for run in doc["runs"]:
            label = run.get("label", "?")
            if run.get("correct") is not True:
                problems.append(f"{name}: {label} run is not correct")
            if label != "change":
                continue
            changes += 1
            want = pins.get((workload, seed))
            got = run.get("fingerprint")
            if want is None:
                problems.append(f"{name}: no pin for {workload} seed {seed}")
            elif got != want:
                problems.append(f"{name}: change run fingerprint {got}, "
                                f"pinned {want}")
        if changes == 0:
            problems.append(f"{name}: no change run")
    for workload, seed in sorted(pins):
        if workload not in seen:
            problems.append(f"BENCH_campaign_{workload}.json: missing "
                            f"(pinned seed {seed})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT,
                        help="repository root (default: this checkout)")
    args = parser.parse_args(argv)
    problems = check(args.root)
    for p in problems:
        print(f"check_bench_pins: FAIL: {p}", file=sys.stderr)
    if problems:
        return 1
    print("check_bench_pins: OK: every change run matches its pin")
    return 0


if __name__ == "__main__":
    sys.exit(main())
