#!/usr/bin/env python3
"""Fold a rumor_bench --trace file into per-config cost and utilization tables.

The trace is Chrome trace-event JSON (chrome://tracing / Perfetto "JSON
Object Format"): complete spans (``ph:"X"``, ts/dur in microseconds) on one
lane per worker, tagged with the campaign config id and block slot, plus a
top-level ``metrics`` object holding the campaign's merged counter registry
(see src/obs/trace.cpp for the writer). This report answers the questions a
trace viewer makes you eyeball manually:

* **Per-config cost**: how many blocks each config executed, total and mean
  wall time inside its ``block:*`` spans, and its share of all busy time —
  i.e. which configs dominate the campaign.

* **Worker utilization**: per-worker busy time (sum of top-level block
  spans) against the trace's wall span, exposing load imbalance from the
  shared block queue.

* **Stragglers**: the longest individual spans and the campaign's tail —
  how long the last-finishing block ran after every other worker went
  idle. A long tail with idle peers means a config's block size is too
  coarse to load-balance (split its trials across more blocks).

* ``--check``: cross-verifies the spans against the embedded metrics
  registry — per-config block span counts must equal the registry's
  ``per_config[].blocks`` exactly, total spans must equal
  ``totals.blocks_executed``, ``graph:build`` spans must equal
  ``totals.graph_builds``, checkpoint spans must equal
  ``checkpoint_writes`` — and validates span geometry (non-negative
  durations, per-worker block spans non-overlapping, graph/merge spans
  nested inside a block span on the same worker). Spans and counters are
  recorded by independent code paths, so agreement is a real consistency
  check on the telemetry plumbing, not a tautology. CI runs this on the
  smoke campaign's trace.

Usage:
  trace_report.py TRACE.json [--top N] [--check]

Exit status: 0 = ok, 1 = --check failure, 2 = bad input.
"""

import argparse
import json
import sys

# Span timestamps are fixed-point microseconds with nanosecond resolution
# (three decimals); half a nanosecond absorbs float-parse rounding without
# masking any real geometry violation.
EPS_US = 0.0005


# The trace schema this tool was written against (otherData.schema_version,
# stamped by obs/trace.cpp); traces without the key predate it and are
# version 1. Policy: bench/README.md, "Report schema versioning".
KNOWN_SCHEMA_VERSION = 1


def load_trace(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(f"{path}: not a trace file (no traceEvents key)")
    version = doc.get("otherData", {}).get("schema_version")
    if isinstance(version, int) and version > KNOWN_SCHEMA_VERSION:
        print(
            f"{path}: warning: trace schema_version {version} is newer than "
            f"this tool understands ({KNOWN_SCHEMA_VERSION}); fields may have "
            f"moved or been renamed",
            file=sys.stderr,
        )
    return doc


def lane_names(events):
    """Returns {tid: lane name} from thread_name metadata events."""
    names = {}
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            names[ev["tid"]] = ev["args"]["name"]
    return names


def spans(events):
    """Returns the complete-span events, each with a computed end time."""
    out = []
    for ev in events:
        if ev.get("ph") != "X":
            continue
        ev = dict(ev)
        ev["end"] = float(ev["ts"]) + float(ev["dur"])
        out.append(ev)
    return out


def block_spans(all_spans):
    return [s for s in all_spans if s["name"].startswith("block:")]


def per_config_table(blocks):
    """Prints per-config block counts and costs; returns {config: count}."""
    stats = {}
    for s in blocks:
        config = s["args"]["config"]
        entry = stats.setdefault(config, {"blocks": 0, "total_us": 0.0, "max_us": 0.0})
        entry["blocks"] += 1
        entry["total_us"] += float(s["dur"])
        entry["max_us"] = max(entry["max_us"], float(s["dur"]))
    total_us = sum(e["total_us"] for e in stats.values()) or 1.0
    width = max((len(c) for c in stats), default=6)
    print(f"{'config':<{width}}  {'blocks':>6}  {'total ms':>9}  {'mean ms':>8}  "
          f"{'max ms':>8}  share")
    for config, e in sorted(stats.items(), key=lambda kv: -kv[1]["total_us"]):
        print(
            f"{config:<{width}}  {e['blocks']:>6}  {e['total_us'] / 1e3:>9.2f}  "
            f"{e['total_us'] / e['blocks'] / 1e3:>8.2f}  {e['max_us'] / 1e3:>8.2f}  "
            f"{100.0 * e['total_us'] / total_us:4.1f}%"
        )
    return {config: e["blocks"] for config, e in stats.items()}


def utilization_table(blocks, all_spans, lanes):
    """Prints per-worker busy time against the trace's wall span."""
    if not all_spans:
        # An empty trace (campaign with zero blocks, or a flush that lost
        # every span) has no wall span; a 0/0 utilization table would just
        # print garbage percentages.
        print("no spans recorded — worker utilization is undefined for an empty trace")
        return
    begin = min(float(s["ts"]) for s in all_spans)
    end = max(s["end"] for s in all_spans)
    wall_us = end - begin
    busy = {}
    count = {}
    for s in blocks:
        busy[s["tid"]] = busy.get(s["tid"], 0.0) + float(s["dur"])
        count[s["tid"]] = count.get(s["tid"], 0) + 1
    print(f"{'worker':<12}  {'blocks':>6}  {'busy ms':>9}  util")
    for tid in sorted(busy):
        name = lanes.get(tid, f"tid {tid}")
        util = 100.0 * busy[tid] / wall_us if wall_us > 0 else 0.0
        print(f"{name:<12}  {count[tid]:>6}  {busy[tid] / 1e3:>9.2f}  {util:4.1f}%")
    print(f"(trace wall span: {wall_us / 1e3:.2f} ms)")


def straggler_report(blocks, top):
    """Prints the longest spans and the campaign's idle tail."""
    if not blocks:
        return
    print(f"longest {min(top, len(blocks))} block span(s):")
    for s in sorted(blocks, key=lambda s: -float(s["dur"]))[:top]:
        slot = s["args"].get("slot", "-")
        print(
            f"  {float(s['dur']) / 1e3:>9.2f} ms  {s['name']:<13} "
            f"{s['args']['config']} (slot {slot}, worker {s['tid']})"
        )
    last = max(blocks, key=lambda s: s["end"])
    other_ends = [s["end"] for s in blocks if s["tid"] != last["tid"]]
    if not other_ends:
        # All block spans ran on one lane (--threads 1, or a one-block
        # campaign); there is no cross-worker tail to measure, and max()
        # over the empty end list would throw.
        print("tail: all block spans ran on one worker — no cross-worker tail")
        return
    tail_us = last["end"] - max(other_ends)
    if tail_us > 0:
        print(
            f"tail: {last['args']['config']} (worker {last['tid']}) ran "
            f"{tail_us / 1e3:.2f} ms after every other worker finished"
        )


def check_geometry(blocks, all_spans, lanes):
    """Validates span shape; returns a list of violation strings.

    Workers execute one block at a time and record graph builds and merges
    from inside the executing block, so block spans on one lane must not
    overlap and every non-block campaign span must nest inside a block span
    on its own lane. The checkpoint lane is a service lane — its spans
    happen during blocks on *other* lanes — so only its durations are
    checked.
    """
    problems = []
    for s in all_spans:
        if float(s["dur"]) < 0 or float(s["ts"]) < 0:
            problems.append(f"negative ts/dur in span {s['name']} on tid {s['tid']}")
    by_tid = {}
    for s in blocks:
        by_tid.setdefault(s["tid"], []).append(s)
    for tid, lane in by_tid.items():
        lane.sort(key=lambda s: float(s["ts"]))
        for prev, cur in zip(lane, lane[1:]):
            if float(cur["ts"]) < prev["end"] - EPS_US:
                problems.append(
                    f"overlapping block spans on worker {tid}: "
                    f"{prev['args']['config']} and {cur['args']['config']}"
                )
    for s in all_spans:
        if s["name"].startswith("block:") or lanes.get(s["tid"]) == "checkpoint":
            continue
        nested = any(
            float(parent["ts"]) - EPS_US <= float(s["ts"])
            and s["end"] <= parent["end"] + EPS_US
            for parent in by_tid.get(s["tid"], [])
        )
        if not nested:
            problems.append(
                f"span {s['name']} ({s['args'].get('config', '?')}) on tid "
                f"{s['tid']} is not nested in any block span"
            )
    return problems


def check_against_metrics(doc, span_counts, all_spans, lanes):
    """Cross-verifies span counts against the embedded metrics registry."""
    problems = []
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return ["trace has no embedded metrics object (run with --trace)"]
    registry = {row["id"]: row["blocks"] for row in metrics.get("per_config", [])}
    for config in sorted(set(registry) | set(span_counts)):
        got = span_counts.get(config, 0)
        want = registry.get(config, 0)
        if got != want:
            problems.append(
                f"config {config}: {got} block span(s) but metrics registry "
                f"counts {want}"
            )
    total_spans = sum(span_counts.values())
    executed = metrics.get("totals", {}).get("blocks_executed")
    if executed is not None and total_spans != executed:
        problems.append(
            f"{total_spans} block span(s) but totals.blocks_executed == {executed}"
        )
    build_spans = sum(1 for s in all_spans if s["name"] == "graph:build")
    builds = metrics.get("totals", {}).get("graph_builds")
    if builds is not None and build_spans != builds:
        problems.append(
            f"{build_spans} graph:build span(s) but totals.graph_builds == {builds}"
        )
    ck_spans = sum(
        1 for s in all_spans
        if lanes.get(s["tid"]) == "checkpoint" and s["name"] == "checkpoint:write"
    )
    ck_writes = metrics.get("checkpoint_writes")
    if ck_writes is not None and ck_spans != ck_writes:
        problems.append(
            f"{ck_spans} checkpoint span(s) but checkpoint_writes == {ck_writes}"
        )
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="trace file written by rumor_bench --trace")
    parser.add_argument(
        "--top", type=int, default=5,
        help="number of longest spans to list (default: 5)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="cross-verify spans against the embedded metrics registry and "
        "validate span geometry; exit 1 on any mismatch",
    )
    args = parser.parse_args()

    try:
        doc = load_trace(args.trace)
    except (OSError, ValueError) as err:
        print(f"trace_report: {err}", file=sys.stderr)
        return 2

    events = doc["traceEvents"]
    lanes = lane_names(events)
    all_spans = spans(events)
    blocks = block_spans(all_spans)
    other = doc.get("otherData", {})
    build = other.get("build_info", {})
    if build:
        print(
            f"campaign '{other.get('campaign', '?')}' — built from "
            f"{build.get('git_sha', '?')} ({build.get('compiler', '?')} "
            f"{build.get('compiler_version', '?')}, {build.get('build_type', '?')})"
        )
    print(f"{len(all_spans)} span(s), {len(blocks)} block(s), "
          f"{len(lanes)} lane(s)\n")

    span_counts = per_config_table(blocks)
    print()
    utilization_table(blocks, all_spans, lanes)
    print()
    straggler_report(blocks, args.top)

    if args.check:
        problems = check_geometry(blocks, all_spans, lanes)
        problems += check_against_metrics(doc, span_counts, all_spans, lanes)
        if problems:
            print(f"\ntrace_report: {len(problems)} check failure(s):",
                  file=sys.stderr)
            for p in problems:
                print(f"  {p}", file=sys.stderr)
            return 1
        print(
            f"\ntrace_report: check passed — {sum(span_counts.values())} block "
            f"span(s) match the metrics registry across "
            f"{len(span_counts)} config(s)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
