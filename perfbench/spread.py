#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds 10]
                                [--workload NAME ...]

Runs perfbench/run.py --trace 0 once per seed on each workload and prints,
per metric, the median of the runs and the distance between their first
and third quartiles as a share of that median (statistics.quantiles, n=4),
next to the metric's regression bound from BENCHMARK.json. A spread at or
above the bound means two sets of runs could disagree by more than the
bound on unchanged code. Exit code 1 when any spread is too wide, or when a
run fails its correctness checks.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = False
    for name in args.workload or names:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                                  name, "--seed", str(seed), "--seconds", str(args.seconds),
                                  "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            bad = bad or not result["correct"]
            for m in values:
                values[m].append(result["metrics"][m]["value"])
        print(f"{name} ({args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1})")
        for m, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            flag = "" if spread < bounds[m] else "  <-- wider than bound"
            bad = bad or bool(flag)
            print(f"  {m:20s} median {med:12.6g}  spread {spread:7.4f}  bound {bounds[m]:.2f}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
