#!/usr/bin/env python3
"""Schema check for WaterWise observability exports (CI gate).

Validates a Chrome trace-event JSON produced by obs::Trace::write_chrome_json
(the file WW_TRACE / --trace-out writes) and, optionally, the metrics JSON
written next to it:

  trace:   top-level object with a "traceEvents" list; every event carries
           name/ph/ts/pid/tid; phases are B or E; within each tid the B/E
           events nest like balanced parentheses with matching names and
           timestamps are monotone non-decreasing (the writer emits B at
           span open and E at span close from per-thread buffers, so any
           violation means the exporter — not the run — is broken).
  metrics: every campaign object in the dump carries a "service" registry
           with the simulator's service-level histograms (queue depth,
           time-to-admission), each with its layout, totals, p50/p95/p99
           and a counts list.  The dump is one campaign object or a
           {label: campaign} map; a campaign may also carry its
           scheduler's "sched" registry, which is not checked.

Usage:
  check_trace.py TRACE_JSON [--metrics METRICS_JSON] [--min-events N]

Exits nonzero with a message on the first violation, so CI logs point at
the offending event.
"""

from __future__ import annotations

import argparse
import json
import sys

REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "pid", "tid")
SERVICE_HISTS = (
    "service.queue_depth",
    "service.time_to_admission_s",
)
HIST_KEYS = ("lo", "hi", "total", "dropped", "p50", "p95", "p99", "counts")


def fail(msg: str) -> None:
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path: str, min_events: int) -> int:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: missing top-level traceEvents")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents is not a list")
    if len(events) < min_events:
        fail(f"{path}: {len(events)} event(s) < required {min_events}")

    # Per-tid span stack: events must nest, names must match, and within a
    # tid timestamps must be monotone (per-thread buffers are append-only).
    stacks: dict[int, list[dict]] = {}
    last_ts: dict[int, float] = {}
    for i, ev in enumerate(events):
        for key in REQUIRED_EVENT_KEYS:
            if key not in ev:
                fail(f"{path}: event {i} missing '{key}': {ev}")
        if ev["ph"] not in ("B", "E"):
            fail(f"{path}: event {i} has phase '{ev['ph']}', expected B or E")
        tid = ev["tid"]
        ts = ev["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{path}: event {i} has invalid ts {ts!r}")
        if ts < last_ts.get(tid, 0.0):
            fail(f"{path}: event {i} ts {ts} < previous ts {last_ts[tid]} "
                 f"on tid {tid} (per-thread buffer not monotone)")
        last_ts[tid] = ts
        stack = stacks.setdefault(tid, [])
        if ev["ph"] == "B":
            stack.append(ev)
        else:
            if not stack:
                fail(f"{path}: event {i} E '{ev['name']}' on tid {tid} "
                     "without a matching B")
            top = stack.pop()
            if top["name"] != ev["name"]:
                fail(f"{path}: event {i} E '{ev['name']}' closes B "
                     f"'{top['name']}' on tid {tid} (misnested spans)")
    for tid, stack in sorted(stacks.items()):
        if stack:
            fail(f"{path}: tid {tid} ends with {len(stack)} unclosed span(s),"
                 f" first '{stack[0]['name']}'")
    return len(events)


def check_metrics(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(doc, dict):
        fail(f"{path}: metrics dump is not an object")
    # Either one campaign or a {label: campaign} map of them.
    campaigns = ({"": doc} if "service" in doc else doc)
    checked = 0
    for label, campaign in campaigns.items():
        if not isinstance(campaign, dict) or "service" not in campaign:
            continue
        reg = campaign["service"]
        if not isinstance(reg, dict) or "histograms" not in reg:
            fail(f"{path}: '{label}' service registry has no histograms")
        hists = reg["histograms"]
        for name in SERVICE_HISTS:
            if name not in hists:
                fail(f"{path}: '{label}' is missing histogram '{name}'")
            for key in HIST_KEYS:
                if key not in hists[name]:
                    fail(f"{path}: '{label}' histogram '{name}' is missing "
                         f"'{key}'")
            if not isinstance(hists[name]["counts"], list):
                fail(f"{path}: '{label}' histogram '{name}' counts is not "
                     "a list")
        checked += 1
    if checked == 0:
        fail(f"{path}: no campaign with a service registry found")
    print(f"check_trace: metrics OK: {checked} campaign(s) carry the "
          "service histograms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome trace-event JSON to validate")
    parser.add_argument("--metrics", help="metrics JSON written next to it")
    parser.add_argument(
        "--min-events", type=int, default=1,
        help="fail when the trace holds fewer events (default 1)")
    args = parser.parse_args(argv)

    n = check_trace(args.trace, args.min_events)
    print(f"check_trace: trace OK: {n} event(s), matched B/E pairs, "
          "monotone per-thread timestamps")
    if args.metrics:
        check_metrics(args.metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
