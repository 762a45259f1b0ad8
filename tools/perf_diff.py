#!/usr/bin/env python3
"""Perf-trajectory gate: diff a rumor_bench e9_micro report against a baseline.

Reads the stable report schema of sim/experiment.hpp in one of two modes:

* **Throughput** (``e9_micro``): compares ns_per_op per primitive against a
  checked-in baseline (bench/BASELINE_e9.json) and fails when any primitive
  slowed down by more than ``--tolerance``. The baseline was recorded on one
  particular machine and CI runners differ, so the default tolerance is
  deliberately loose (5x): this catches catastrophic regressions (an
  accidentally quadratic inner loop, a dropped compiler flag), not
  single-digit-percent drift.

* **Normalized throughput** (``--normalize PRIMITIVE``, typically
  ``rng_next``): before comparing, divide every ns_per_op by the named
  primitive's ns_per_op *within its own report* — current and baseline
  alike. The gate then compares relative costs (how many rng_next calls a
  primitive is worth), which cancels the runner's overall clock/IPC and
  makes a much tighter ``--tolerance`` viable across heterogeneous
  hardware. The reference primitive itself always ratios at 1.0 under this
  mode, so its absolute regression is *not* gated — keep one un-normalized
  run if that matters (ROADMAP "perf trajectory, phase 3").

Usage:
  perf_diff.py BENCH_e9.json bench/BASELINE_e9.json [--tolerance 5.0] \
      [--normalize rng_next]

Exit status: 0 = within tolerance, 1 = regression, 2 = bad input.
"""

import argparse
import json
import sys

# The report schema this tool was written against (kReportSchemaVersion in
# src/sim/experiment.hpp). Reports with no schema_version key predate the
# field and are version 1; newer reports may have renamed the fields gated
# below, so the loader warns rather than silently misreading them. Policy:
# bench/README.md, "Report schema versioning".
KNOWN_SCHEMA_VERSION = 1


def warn_unknown_schema(report, path):
    version = report.get("schema_version")
    if isinstance(version, int) and version > KNOWN_SCHEMA_VERSION:
        print(
            f"{path}: warning: report schema_version {version} is newer than "
            f"this tool understands ({KNOWN_SCHEMA_VERSION}); fields may have "
            f"moved or been renamed",
            file=sys.stderr,
        )


def load_reports(path):
    """Returns the list of report objects in a report file (one or many)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    reports = doc if isinstance(doc, list) else [doc]
    for report in reports:
        if isinstance(report, dict):
            warn_unknown_schema(report, path)
    return reports


def describe_build(path):
    """One line naming what produced a report file, from its build_info.

    Reports grew a "build_info" block (git sha, compiler, build type) so
    that gate failures are attributable: a 3x "regression" that compares a
    Debug build against a Release baseline is a setup error, not a perf
    bug, and this diagnostic makes that visible. Reports predating the
    block yield None and print nothing.
    """
    try:
        reports = load_reports(path)
    except (OSError, ValueError):
        return None
    for report in reports:
        info = report.get("build_info")
        if isinstance(info, dict):
            return (
                f"{info.get('git_sha', '?')}"
                f" ({info.get('compiler', '?')} {info.get('compiler_version', '?')},"
                f" {info.get('build_type', '?')}"
                f"{', ' + info['flags'] if info.get('flags') else ''})"
            )
    return None


def find_report(path, experiment):
    for report in load_reports(path):
        if report.get("experiment") == experiment:
            return report
    raise KeyError(f"{path}: no {experiment} report found")


def load_e9_rows(path):
    """Returns {primitive: ns_per_op} from a report file.

    A report with no rows, or a primitive timed at <= 0 ns, is corrupt or
    truncated input — comparing against it would either gate nothing
    (vacuous pass) or divide by zero (spurious inf-ratio "regression"), so
    both are rejected as bad input (exit 2) rather than diffed.
    """
    report = find_report(path, "e9_micro")
    rows = report.get("rows", [])
    if not rows:
        raise ValueError(f"{path}: e9_micro report has no rows (truncated run?)")
    out = {}
    for row in rows:
        ns = float(row["ns_per_op"])
        if not ns > 0.0:
            raise ValueError(
                f"{path}: primitive '{row['primitive']}' has ns_per_op == "
                f"{row['ns_per_op']} (corrupt report; must be > 0)"
            )
        out[row["primitive"]] = ns
    return out


def normalize_rows(rows, primitive, path):
    """Divides every ns_per_op by `primitive`'s value within the same report."""
    ref = rows.get(primitive)
    if ref is None:
        have = ", ".join(sorted(rows)) or "none"
        raise ValueError(
            f"{path}: cannot normalize by '{primitive}' — report has no such "
            f"primitive (rows: {have})"
        )
    return {name: ns / ref for name, ns in rows.items()}


def diff_e9(current, baseline, tolerance):
    """Prints the ns_per_op table; returns the list of regressions."""
    regressions = []
    width = max(len(name) for name in baseline) if baseline else 0
    print(f"{'primitive':<{width}}  {'base ns':>10}  {'pr ns':>10}  ratio")
    for name, base_ns in sorted(baseline.items()):
        if name not in current:
            print(f"{name:<{width}}  {base_ns:>10.2f}  {'MISSING':>10}  -")
            regressions.append((name, "missing from current report"))
            continue
        cur_ns = current[name]
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        flag = " REGRESSION" if ratio > tolerance else ""
        print(f"{name:<{width}}  {base_ns:>10.2f}  {cur_ns:>10.2f}  {ratio:5.2f}x{flag}")
        if ratio > tolerance:
            regressions.append((name, f"{ratio:.2f}x > {tolerance:.2f}x"))
    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<{width}}  {'NEW':>10}  {current[name]:>10.2f}  -")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="fresh e9_micro report (BENCH_e9.json)")
    parser.add_argument("baseline", help="checked-in e9_micro baseline report")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=5.0,
        help="max allowed ns_per_op ratio current/baseline (default: 5.0)",
    )
    parser.add_argument(
        "--normalize",
        metavar="PRIMITIVE",
        help="divide each report's ns_per_op by this primitive's own value "
        "before comparing (e.g. rng_next); gates relative costs, which are "
        "hardware-independent, so the tolerance can be much tighter",
    )
    args = parser.parse_args()

    try:
        current = load_e9_rows(args.current)
        baseline = load_e9_rows(args.baseline)
        if args.normalize:
            current = normalize_rows(current, args.normalize, args.current)
            baseline = normalize_rows(baseline, args.normalize, args.baseline)
            print(f"(ns_per_op normalized by each report's own '{args.normalize}')")
    except (OSError, ValueError, KeyError) as err:
        print(f"perf_diff: {err}", file=sys.stderr)
        return 2

    for label, path in (("current", args.current), ("baseline", args.baseline)):
        build = describe_build(path)
        if build is not None:
            print(f"({label}: built from {build})")

    regressions = diff_e9(current, baseline, args.tolerance)
    if regressions:
        print(f"\nperf_diff: {len(regressions)} gate failure(s):", file=sys.stderr)
        for name, why in regressions:
            print(f"  {name} regressed: {why}", file=sys.stderr)
        return 1
    print(f"\nperf_diff: all {len(baseline)} primitives within {args.tolerance:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
