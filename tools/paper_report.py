#!/usr/bin/env python3
"""Write the paper report (results/paper.json; bench/README.md, "The paper report").

The report is the default-scale ``--json`` report of every experiment
``rumor_bench --list`` names but ``e9_micro`` (its rows are timings), with
the fields that describe the build or the run removed: ``build_info`` and
``params.threads``. This script is the only copy of that
normalization; what is left is the same bytes at any thread count.

Usage:
  paper_report.py RUMOR_BENCH [--threads N] > results/paper.json
  paper_report.py RUMOR_BENCH [--threads N] --check results/paper.json

``--check`` regenerates the report and compares it with the file byte for
byte; on a mismatch it prints the first differing lines and the command
that regenerates the file.

Exit status: 0 = written or same bytes, 1 = --check mismatch,
2 = bad input or a failed run.
"""

import argparse
import difflib
import json
import subprocess
import sys

# Timing rows differ on every run, so they have no place in a byte check.
EXCLUDED = ("e9_micro",)


def bench_json(bench, *args):
    proc = subprocess.run([bench, *args, "--json"], capture_output=True, check=True)
    return json.loads(proc.stdout.decode("utf-8"))


def render(bench, threads):
    names = [e["experiment"] for e in bench_json(bench, "--list")
             if e["experiment"] not in EXCLUDED]
    reports = bench_json(bench, *names, "--threads", str(threads))
    for report in reports:
        del report["build_info"]
        del report["params"]["threads"]
    return json.dumps(reports, indent=2, ensure_ascii=False) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rumor_bench", help="path to the rumor_bench binary")
    parser.add_argument("--threads", type=int, default=4,
                        help="worker threads for the run (default: 4); the bytes do not depend on it")
    parser.add_argument("--check", metavar="FILE",
                        help="compare with FILE instead of printing the report")
    args = parser.parse_args()

    try:
        text = render(args.rumor_bench, args.threads)
        committed = None
        if args.check:
            with open(args.check, "rb") as fh:
                committed = fh.read()
    except subprocess.CalledProcessError as err:
        sys.stderr.write(err.stderr.decode("utf-8", "replace"))
        print(f"paper_report: {' '.join(err.cmd)} exited {err.returncode}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as err:
        print(f"paper_report: {type(err).__name__}: {err}", file=sys.stderr)
        return 2

    data = text.encode("utf-8")
    if committed is None:
        sys.stdout.buffer.write(data)
        return 0
    if data == committed:
        print(f"paper_report: same bytes as {args.check}")
        return 0
    diff = list(difflib.unified_diff(committed.decode("utf-8", "replace").splitlines(),
                                     text.splitlines(), args.check, "regenerated", lineterm=""))
    print("\n".join(diff[:60]))
    if len(diff) > 60:
        print(f"... ({len(diff) - 60} more diff lines)")
    print(f"\npaper_report: {args.check} differs from this build's report. If the change "
          f"is meant to move these numbers, regenerate the file and record the move in "
          f"CHANGES.md:\n  python3 {sys.argv[0]} {args.rumor_bench} --threads {args.threads}"
          f" > {args.check}", file=sys.stderr)
    return 1

if __name__ == "__main__":
    sys.exit(main())
