#!/usr/bin/env python3
"""CTest-invoked CLI checks for tools/trace_report.py.

Covers the exit-code contract the CI trace-smoke job relies on (0 = ok,
1 = --check failure, 2 = bad input) with synthetic traces in the Chrome
trace-event schema src/obs/trace.cpp writes: span counts that agree or
disagree with the embedded metrics registry (blocks, graph builds,
checkpoint writes), overlapping block spans, and orphaned (non-nested)
graph spans. The real-binary end of the contract —
that rumor_bench --trace emits traces this script passes — is covered by
the CI smoke job and tests/test_bench_cli.cpp.

Usage: test_trace_report.py /path/to/trace_report.py
"""

import json
import subprocess
import sys
import tempfile
import os


def span(name, ts, dur, tid, config=None, slot=None):
    args = {}
    if config is not None:
        args["config"] = config
    if slot is not None:
        args["slot"] = slot
    return {"name": name, "cat": "campaign", "ph": "X", "ts": ts, "dur": dur,
            "pid": 1, "tid": tid, "args": args}


def meta(tid, name):
    return {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": name}}


def base_trace():
    """Two workers, three configs, one checkpoint write — self-consistent."""
    events = [
        meta(0, "worker 0"),
        meta(1, "worker 1"),
        meta(2, "checkpoint"),
        span("block:trials", 10.0, 50.0, 0, "alpha", 0),
        span("graph:build", 12.0, 5.0, 0, "alpha"),
        span("merge", 55.0, 2.0, 0, "alpha"),
        span("block:trials", 70.0, 30.0, 0, "alpha", 1),
        span("block:trials", 15.0, 80.0, 1, "beta", 0),
        span("graph:build", 16.0, 3.0, 1, "beta"),
        span("block:plan", 100.0, 4.0, 1, "gamma", 0),
        span("checkpoint:write", 60.0, 1.5, 2),
    ]
    metrics = {
        "wall_ns": 110_000,
        "blocks_scheduled": 4,
        "checkpoint_writes": 1,
        "totals": {"blocks_executed": 4, "trials_simulated": 48, "graph_builds": 2},
        "per_config": [
            {"id": "alpha", "blocks": 2, "trials": 32, "busy_ns": 80_000},
            {"id": "beta", "blocks": 1, "trials": 16, "busy_ns": 80_000},
            {"id": "gamma", "blocks": 1, "trials": 0, "busy_ns": 4_000},
        ],
    }
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"campaign": "unit", "build_info": {
                "git_sha": "deadbee", "compiler": "gcc",
                "compiler_version": "12", "build_type": "Release"}},
            "metrics": metrics}


def write(tmp, name, doc):
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def run(trace_report, *args):
    proc = subprocess.run(
        [sys.executable, trace_report, *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout + proc.stderr


def check(condition, message, output=""):
    if not condition:
        print(f"FAIL: {message}\n{output}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    trace_report = sys.argv[1]

    with tempfile.TemporaryDirectory() as tmp:
        clean = write(tmp, "clean.json", base_trace())
        code, out = run(trace_report, clean)
        check(code == 0, "report over a clean trace exits 0", out)
        check("alpha" in out and "worker 0" in out,
              "config and worker tables are rendered", out)
        check("built from deadbee" in out, "build provenance is printed", out)

        code, out = run(trace_report, clean, "--check")
        check(code == 0, "--check passes on a self-consistent trace", out)
        check("check passed" in out, "--check reports the span/registry match", out)

        # One block span lost (crashed writer, truncated flush): the span
        # count no longer matches the registry -> exit 1 naming the config.
        lost = base_trace()
        lost["traceEvents"] = [e for e in lost["traceEvents"]
                               if e["args"].get("slot") != 1]
        lost_path = write(tmp, "lost.json", lost)
        code, out = run(trace_report, lost_path, "--check")
        check(code == 1, "missing block span fails --check", out)
        check("alpha" in out and "metrics registry" in out,
              "mismatch diagnostic names the config", out)
        code, out = run(trace_report, lost_path)
        check(code == 0, "without --check the same trace still reports", out)

        # Overlapping block spans on one worker violate one-block-at-a-time.
        overlap = base_trace()
        overlap["traceEvents"].append(span("block:trials", 20.0, 30.0, 0, "beta", 1))
        overlap["metrics"]["per_config"][1]["blocks"] = 2
        overlap["metrics"]["totals"]["blocks_executed"] = 5
        overlap["metrics"]["blocks_scheduled"] = 5
        code, out = run(trace_report, write(tmp, "overlap.json", overlap), "--check")
        check(code == 1, "overlapping block spans fail --check", out)
        check("overlapping" in out, "overlap diagnostic is specific", out)

        # A graph:build outside any block span is an orphan.
        orphan = base_trace()
        orphan["traceEvents"].append(span("graph:build", 200.0, 5.0, 0, "alpha"))
        code, out = run(trace_report, write(tmp, "orphan.json", orphan), "--check")
        check(code == 1, "non-nested span fails --check", out)
        check("not nested" in out, "nesting diagnostic is specific", out)

        # So are graph:build spans: one per counted build.
        builds = base_trace()
        builds["metrics"]["totals"]["graph_builds"] = 3
        code, out = run(trace_report, write(tmp, "builds.json", builds), "--check")
        check(code == 1, "graph:build span/count mismatch fails --check", out)
        check("totals.graph_builds" in out, "build diagnostic names the counter", out)

        # Checkpoint spans are checked against the registry too.
        ck = base_trace()
        ck["metrics"]["checkpoint_writes"] = 3
        code, out = run(trace_report, write(tmp, "ck.json", ck), "--check")
        check(code == 1, "checkpoint span/count mismatch fails --check", out)

        # A trace without embedded metrics cannot be checked.
        bare = base_trace()
        del bare["metrics"]
        bare_path = write(tmp, "bare.json", bare)
        code, out = run(trace_report, bare_path, "--check")
        check(code == 1, "--check without embedded metrics exits 1", out)
        code, out = run(trace_report, bare_path)
        check(code == 0, "plain report works without embedded metrics", out)

        # A single-worker trace has no cross-worker tail; the straggler
        # section must say so instead of throwing on the empty end list.
        solo = base_trace()
        solo["traceEvents"] = [meta(0, "worker 0"),
                               span("block:trials", 10.0, 50.0, 0, "alpha", 0),
                               span("block:trials", 70.0, 30.0, 0, "alpha", 1)]
        solo["metrics"]["checkpoint_writes"] = 0
        solo["metrics"]["totals"]["blocks_executed"] = 2
        solo["metrics"]["totals"]["graph_builds"] = 0
        solo["metrics"]["per_config"] = [
            {"id": "alpha", "blocks": 2, "trials": 32, "busy_ns": 80_000}]
        solo_path = write(tmp, "solo.json", solo)
        code, out = run(trace_report, solo_path, "--check")
        check(code == 0, "single-worker trace reports and checks cleanly", out)
        check("no cross-worker tail" in out,
              "single-worker tail is reported explicitly", out)

        # A zero-span trace (campaign with no work) must degrade to explicit
        # messages, not 0/0 utilization rows.
        empty = base_trace()
        empty["traceEvents"] = [meta(0, "worker 0")]
        empty["metrics"]["checkpoint_writes"] = 0
        empty["metrics"]["blocks_scheduled"] = 0
        empty["metrics"]["totals"]["blocks_executed"] = 0
        empty["metrics"]["totals"]["graph_builds"] = 0
        empty["metrics"]["per_config"] = []
        empty_path = write(tmp, "empty.json", empty)
        code, out = run(trace_report, empty_path, "--check")
        check(code == 0, "zero-span trace reports and checks cleanly", out)
        check("no spans recorded" in out,
              "empty-trace utilization is reported explicitly", out)

        # Bad input: missing file, non-JSON, JSON without traceEvents.
        code, out = run(trace_report, os.path.join(tmp, "nope.json"))
        check(code == 2, "missing trace exits 2", out)
        code, out = run(trace_report, write(tmp, "notrace.json", {"rows": []}))
        check(code == 2, "JSON without traceEvents exits 2", out)

    print("test_trace_report: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
