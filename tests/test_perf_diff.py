#!/usr/bin/env python3
"""CTest-invoked CLI checks for tools/perf_diff.py.

Covers the previously untested ``--normalize`` mode plus the exit-code
contract the CI perf-trajectory job relies on (0 = within tolerance,
1 = regression, 2 = bad input). Fixture reports are generated here, in the
experiment report schema.

Usage: test_perf_diff.py /path/to/perf_diff.py
"""

import json
import subprocess
import sys
import tempfile
import os


def e9_report(rows):
    return {
        "experiment": "e9_micro",
        "params": {"trials": 8},
        "rows": [
            {"primitive": name, "iterations": 1000, "ns_per_op": ns}
            for name, ns in rows.items()
        ],
    }


def write(tmp, name, doc):
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def run(perf_diff, *args):
    proc = subprocess.run(
        [sys.executable, perf_diff, *args], capture_output=True, text=True
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
    perf_diff = sys.argv[1]

    with tempfile.TemporaryDirectory() as tmp:
        # Baseline machine: rng_next 2 ns, engine 10 ns -> relative cost 5.
        base = write(tmp, "base.json", [e9_report({"rng_next": 2.0, "engine": 10.0})])

        # A 3x-faster machine, same relative cost: raw ratio 0.33x, and the
        # normalized gate must agree at any tolerance.
        faster = write(tmp, "faster.json", [e9_report({"rng_next": 0.667, "engine": 3.33})])
        code, out = run(perf_diff, faster, base, "--normalize", "rng_next", "--tolerance", "1.1")
        check(code == 0, "hardware scaling cancels under --normalize", out)

        # A genuine relative regression hidden by fast hardware: rng_next
        # twice as fast, the engine the same speed -> raw 1.0x (passes even
        # at 2x) but relative cost doubled (10 vs 5) -> normalized fails.
        hidden = write(tmp, "hidden.json", [e9_report({"rng_next": 1.0, "engine": 10.0})])
        code, out = run(perf_diff, hidden, base, "--tolerance", "2.0")
        check(code == 0, "raw gate misses the relative regression", out)
        code, out = run(perf_diff, hidden, base, "--normalize", "rng_next", "--tolerance", "1.8")
        check(code == 1, "--normalize catches it (exit 1)", out)
        check("REGRESSION" in out, "regression is flagged in the table", out)

        # Normalizing by a primitive absent from a report is bad input (2),
        # and the diagnostic names the offending file, not just "current".
        code, out = run(perf_diff, hidden, base, "--normalize", "no_such_primitive")
        check(code == 2, "unknown --normalize primitive exits 2", out)
        check("hidden.json" in out, "normalize diagnostic names the report file", out)
        check("no_such_primitive" in out, "normalize diagnostic names the primitive", out)

        # A baseline primitive timed at 0 ns is corrupt input, not an
        # infinite regression: exit 2 naming path and primitive (this used
        # to exit 1 with an inf-ratio REGRESSION row).
        zero_ns = write(tmp, "zero_ns.json", [e9_report({"rng_next": 2.0, "engine": 0.0})])
        code, out = run(perf_diff, hidden, zero_ns)
        check(code == 2, "baseline ns_per_op == 0 exits 2, not 1", out)
        check("zero_ns.json" in out and "engine" in out,
              "zero-ns diagnostic names the file and primitive", out)

        # A zero-row report gates nothing: bad input (2), never a vacuous
        # "all 0 primitives within tolerance" pass.
        empty_e9 = write(tmp, "empty_e9.json", [e9_report({})])
        code, out = run(perf_diff, hidden, empty_e9)
        check(code == 2, "zero-row e9 baseline exits 2", out)
        check("empty_e9.json" in out and "no rows" in out,
              "zero-row diagnostic names the file", out)
        code, out = run(perf_diff, empty_e9, base)
        check(code == 2, "zero-row e9 current report exits 2", out)

        # Same relative costs as the baseline -> exit 0.
        clean = write(tmp, "clean.json", [e9_report({"rng_next": 2.0, "engine": 10.0})])
        code, out = run(perf_diff, clean, base, "--normalize", "rng_next", "--tolerance", "1.1")
        check(code == 0, "clean report passes the gate", out)

        # Missing files are bad input (2), never a silent pass.
        code, out = run(perf_diff, os.path.join(tmp, "nope.json"), base)
        check(code == 2, "missing report exits 2", out)

    print("test_perf_diff: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
