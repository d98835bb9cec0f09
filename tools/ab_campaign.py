#!/usr/bin/env python3
"""A/B campaign benchmark with code-layout controls.

Compares two revisions of the program on campaignbench workloads, and
measures how much a layout change alone moves each metric, so that a claim
can be told apart from layout noise.

    python3 tools/ab_campaign.py --base HEAD~1 --change worktree \\
        --workloads alibaba-peak,borg-steady --rounds 10 --pads 0,176 \\
        --scratch /tmp/ab

For every (revision, pad) variant the driver

  * exports the revision (`git archive`, or the working tree's tracked and
    untracked-but-not-ignored files for `worktree`) into its own directory
    under --scratch;
  * for a pad above 0, appends a never-run `[[gnu::cold]]` function of that
    many bytes to one library translation unit (PAD_TU).  GCC places cold
    text before the hot text, so the pad shifts every hot function; the
    driver checks the shift against `nm` of `Simulator::run` in the built
    campaign_bench;
  * builds and runs through the variant's own, unchanged
    `campaignbench/run.py`, which builds into the variant's `.bench_build/`.

Each round runs every workload once per variant, rotating the variant order
by one from round to round.  Every run is appended to --scratch/runs.jsonl
as it finishes.  The report gives, per workload and metric:

  * each variant's median and quartiles;
  * change against base at every pad: the median paired change over rounds
    and the rounds it wins;
  * the pad-only floor: the largest |median paired change| of base+pad
    against base+0.

A claim holds only if the change has the same sign at every pad and its
smallest |median| exceeds the floor.  `--report RUNS.jsonl` prints the
report of a finished (or partial) runs file again.

The driver writes only under --scratch.  It never touches the checkout's
`.bench_build/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from typing import Iterable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAD_TU = os.path.join("src", "sched", "transport.cpp")
PAD_SYMBOL = "ww_ab_layout_pad"
ANCHOR = "ww::dc::Simulator::run("
MARKER = ".ab_campaign"


# --- statistics --------------------------------------------------------------

def quantile(xs: list[float], p: float) -> float:
    """Linear-interpolation quantile of a non-empty list (p in [0, 1])."""
    s = sorted(xs)
    pos = p * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(xs: list[float]) -> float:
    return quantile(xs, 0.5)


def paired(runs: list[dict], workload: str, metric: str,
           a: tuple[str, int], b: tuple[str, int]) -> list[tuple[float, float]]:
    """(a, b) values of `metric` in every round that ran both variants."""
    by_round: dict[int, dict[tuple[str, int], float]] = {}
    for r in runs:
        if r["workload"] != workload or metric not in r["metrics"]:
            continue
        by_round.setdefault(r["round"], {})[(r["rev"], r["pad"])] = (
            r["metrics"][metric])
    return [(v[a], v[b]) for _, v in sorted(by_round.items())
            if a in v and b in v]


def paired_change(pairs: list[tuple[float, float]],
                  better: str) -> tuple[float, int]:
    """Median of b/a - 1 in percent, and the rounds where b beats a."""
    changes = [(b / a - 1.0) * 100.0 if a != 0 else 0.0 for a, b in pairs]
    won = sum(1 for a, b in pairs if (b < a if better == "lower" else b > a))
    return (median(changes) if changes else 0.0), won


def verdict(changes: list[float], floor: float | None, better: str) -> str:
    """Whether a change given at every pad holds against the floor."""
    if floor is None:
        return "no control"
    if any(c > 0 for c in changes) and any(c < 0 for c in changes):
        return "sign flips"
    if min(abs(c) for c in changes) > floor:
        lower = changes[0] < 0
        return "better" if lower == (better == "lower") else "worse"
    return "inside floor"


def analyse(runs: list[dict], metrics: list[tuple[str, str]]) -> dict:
    """Per workload and metric: variant quartiles, changes, floor, verdict."""
    out: dict = {}
    pads = sorted({r["pad"] for r in runs})
    for workload in sorted({r["workload"] for r in runs}):
        rows = {}
        for metric, better in metrics:
            variants = {}
            for rev in ("base", "change"):
                for pad in pads:
                    xs = [r["metrics"][metric] for r in runs
                          if r["workload"] == workload and r["rev"] == rev
                          and r["pad"] == pad and metric in r["metrics"]]
                    if xs:
                        variants[(rev, pad)] = (quantile(xs, 0.25), median(xs),
                                                quantile(xs, 0.75), len(xs))
            if not variants:
                continue
            changes = {}
            for pad in pads:
                pairs = paired(runs, workload, metric, ("base", pad),
                               ("change", pad))
                if pairs:
                    changes[pad] = paired_change(pairs, better) + (len(pairs),)
            floors = []
            for pad in pads:
                if pad == 0:
                    continue
                pairs = paired(runs, workload, metric, ("base", 0),
                               ("base", pad))
                if pairs:
                    floors.append(abs(paired_change(pairs, better)[0]))
            floor = max(floors) if floors else None
            rows[metric] = {
                "variants": variants,
                "changes": changes,
                "floor": floor,
                "verdict": (verdict([c[0] for c in changes.values()], floor,
                                    better) if changes else "no change runs"),
            }
        out[workload] = rows
    return out


def format_report(result: dict) -> str:
    lines = []
    for workload, rows in result.items():
        lines.append(f"== {workload} ==")
        lines.append(f"{'metric':<18} {'variant':<12} {'q1':>12} "
                     f"{'median':>12} {'q3':>12} {'n':>3}")
        for metric, row in rows.items():
            for (rev, pad), (q1, med, q3, n) in sorted(row["variants"].items()):
                lines.append(f"{metric:<18} {rev + '+' + str(pad):<12} "
                             f"{q1:>12.6g} {med:>12.6g} {q3:>12.6g} {n:>3}")
        lines.append(f"{'metric':<18} {'change vs base, per pad':<46} "
                     f"{'floor':>8}  verdict")
        for metric, row in rows.items():
            per_pad = ", ".join(
                f"pad {pad}: {chg:+.1f} % ({won}/{n})"
                for pad, (chg, won, n) in sorted(row["changes"].items()))
            floor = ("n/a" if row["floor"] is None
                     else f"{row['floor']:.1f} %")
            lines.append(f"{metric:<18} {per_pad:<46} {floor:>8}  "
                         f"{row['verdict']}")
        lines.append("")
    return "\n".join(lines)


def read_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def end_to_end_metrics(root: str = ROOT) -> list[tuple[str, str]]:
    """(name, "lower"|"higher") of BENCHMARK.json's end-to-end metrics."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    return [(m["name"], m["better"]) for m in doc["end_to_end"]]


# --- variants ----------------------------------------------------------------

def run(cmd: list[str], cwd: str | None = None,
        stdin: bytes | None = None) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, cwd=cwd, input=stdin, capture_output=True,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"ab_campaign: step failed: {' '.join(cmd)}")
    return proc


def export(rev: str, dest: str) -> str:
    """Copies `rev` (a git revision, or `worktree`) into `dest`; returns the
    commit it names."""
    os.makedirs(dest)
    if rev == "worktree":
        listing = run(["git", "ls-files", "-z", "--cached", "--others",
                       "--exclude-standard"], cwd=ROOT).stdout
        for rel in filter(None, listing.decode().split("\0")):
            src = os.path.join(ROOT, rel)
            if not os.path.isfile(src):
                continue  # deleted in the working tree
            os.makedirs(os.path.dirname(os.path.join(dest, rel)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))
        head = run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT)
        return head.stdout.decode().strip() + "+worktree"
    archive = run(["git", "archive", rev], cwd=ROOT).stdout
    run(["tar", "-x", "-C", dest], stdin=archive)
    return run(["git", "rev-parse", "--short", rev],
               cwd=ROOT).stdout.decode().strip()


def pad_source(pad: int) -> str:
    """A never-run cold function whose body is `pad` bytes of code."""
    return (
        "\n// Layout control (tools/ab_campaign.py): never called.\n"
        f"extern \"C\" [[gnu::cold, gnu::noinline, gnu::used]] void "
        f"{PAD_SYMBOL}() {{\n"
        f"  asm volatile(\".skip {pad - 1}, 0x90\");\n"
        "}\n")


def symbol_address(binary: str, name: str) -> int:
    """Address of the first `nm -C` symbol whose name starts with `name`."""
    out = run(["nm", "-C", binary]).stdout.decode()
    for line in out.splitlines():
        parts = line.split(maxsplit=2)
        if len(parts) == 3 and parts[2].startswith(name):
            return int(parts[0], 16)
    raise SystemExit(f"ab_campaign: no symbol {name} in {binary}")


def bench_binary(variant_dir: str) -> str:
    return os.path.join(variant_dir, ".bench_build", "campaignbench",
                        "campaign_bench")


def campaign(variant_dir: str, workload: str, seed: int,
             seconds: float) -> tuple[dict, str]:
    """One untraced run.py run in the variant; its last JSON line and
    fingerprint."""
    proc = run([sys.executable, os.path.join("campaignbench", "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", repr(seconds), "--trace", "0"],
               cwd=variant_dir)
    lines = proc.stdout.decode().splitlines()
    result = json.loads(lines[-1])
    fingerprint = next((ln.split(": ", 1)[1].split()[0] for ln in lines
                        if ln.startswith("fingerprint ")), "")
    return result, fingerprint


def prepare_scratch(path: str) -> None:
    path = os.path.abspath(path)
    if os.path.commonpath([path, ROOT]) == ROOT:
        raise SystemExit("ab_campaign: --scratch must lie outside the "
                         "checkout")
    if os.path.isdir(path) and os.listdir(path):
        if not os.path.exists(os.path.join(path, MARKER)):
            raise SystemExit(f"ab_campaign: {path} is not empty and is not "
                             "an ab_campaign scratch directory")
        shutil.rmtree(path)
    os.makedirs(path, exist_ok=True)
    open(os.path.join(path, MARKER), "w", encoding="utf-8").close()


def variants_of(pads: list[int]) -> list[tuple[str, int]]:
    return [(rev, pad) for rev in ("base", "change") for pad in pads]


def rotated(items: list, k: int) -> list:
    k %= len(items)
    return items[k:] + items[:k]


def campaign_ab(args: argparse.Namespace) -> int:
    pads = sorted({int(p) for p in args.pads.split(",")})
    if 0 not in pads or any(p < 0 or p == 1 for p in pads):
        raise SystemExit("ab_campaign: --pads must include 0, and every "
                         "other pad must be at least 2 bytes")
    workloads = args.workloads.split(",")
    scratch = os.path.abspath(args.scratch)
    prepare_scratch(scratch)
    revs = {"base": args.base, "change": args.change}
    dirs, commits = {}, {}
    for rev, pad in variants_of(pads):
        d = os.path.join(scratch, f"{rev}-pad{pad}")
        commits[rev] = export(revs[rev], d)
        if pad:
            with open(os.path.join(d, PAD_TU), "a", encoding="utf-8") as f:
                f.write(pad_source(pad))
        dirs[(rev, pad)] = d
    # Build every variant (run.py builds before it runs) with a short run.
    for key, d in dirs.items():
        print(f"building {key[0]}+{key[1]} ...", flush=True)
        campaign(d, workloads[0], args.seed, 0.01)
    for rev in ("base", "change"):
        origin = symbol_address(bench_binary(dirs[(rev, 0)]), ANCHOR)
        for pad in pads[1:]:
            shift = symbol_address(bench_binary(dirs[(rev, pad)]),
                                   ANCHOR) - origin
            print(f"{rev}+{pad}: Simulator::run moved {shift:+d} bytes",
                  flush=True)
            if shift <= 0:
                raise SystemExit(f"ab_campaign: the {pad}-byte pad did not "
                                 f"move Simulator::run in {rev}")
    runs_path = os.path.join(scratch, "runs.jsonl")
    variants = variants_of(pads)
    with open(runs_path, "w", encoding="utf-8") as out:
        for rnd in range(args.rounds):
            for workload in workloads:
                for order, (rev, pad) in enumerate(rotated(variants, rnd)):
                    result, fp = campaign(dirs[(rev, pad)], workload,
                                          args.seed, args.seconds)
                    if not result.get("correct"):
                        raise SystemExit(f"ab_campaign: {rev}+{pad} "
                                         f"{workload} failed its checks")
                    record = {
                        "round": rnd, "order": order, "workload": workload,
                        "seed": args.seed, "rev": rev, "pad": pad,
                        "commit": commits[rev],
                        "fingerprint": fp,
                        "metrics": {k: v["value"] for k, v in
                                    result["metrics"].items()},
                    }
                    out.write(json.dumps(record, sort_keys=True) + "\n")
                    out.flush()
            print(f"round {rnd + 1}/{args.rounds} done", flush=True)
    runs = read_runs(runs_path)
    for workload in workloads:
        prints = {(r["rev"], r["fingerprint"]) for r in runs
                  if r["workload"] == workload}
        same = len({fp for _, fp in prints}) == 1
        print(f"{workload}: fingerprints "
              f"{'identical' if same else 'differ'}: {sorted(prints)}")
    print(f"raw runs: {runs_path}")
    print(format_report(analyse(runs, end_to_end_metrics())))
    return 0


def main(argv: Iterable[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", help="git revision of the base")
    parser.add_argument("--change",
                        help="git revision of the change, or `worktree`")
    parser.add_argument("--workloads", default="alibaba-peak",
                        help="comma-separated campaignbench workloads")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--pads", default="0,176",
                        help="comma-separated pad sizes in bytes; include 0")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--scratch", default="/tmp/ww_ab_campaign",
                        help="directory the driver owns and writes under")
    parser.add_argument("--report", metavar="RUNS_JSONL",
                        help="print the report of a runs file and exit")
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.report:
        print(format_report(analyse(read_runs(args.report),
                                    end_to_end_metrics())))
        return 0
    if not args.base or not args.change:
        parser.error("--base and --change are required")
    return campaign_ab(args)


if __name__ == "__main__":
    sys.exit(main())
