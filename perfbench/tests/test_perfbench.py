"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench/tests

They build the benchmark (as perfbench/run.py does) on first use and run
its --smoke mode, so they take about a minute from a clean tree and seconds
after that. Scratch files go under the build directory.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_LIMIT_S = 30


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(PERFBENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def setUpModule():
    built = run_bench("--build-only")
    if built.returncode != 0:
        raise RuntimeError("benchmark build failed:\n" + built.stderr)


class MetricNames(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        # empirical_mmap stays runnable by hand but is not a gated workload
        # (README.md, "Workloads").
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         [n for n in workloads.NAMES if n != "empirical_mmap"])
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}, run.PER_LAYER)

    def test_printed_metrics_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = run_bench("--workload", "checkpointed_grid", "--seed", "5", "--seconds", "1",
                            "--trace", str(trace), "--smoke")
            self.assertEqual(out.returncode, 0, out.stderr)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(printed, {m["name"]: m["unit"] for m in BENCHMARK[key]})


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_spec_bytes(self):
        for name in workloads.NAMES:
            for smoke in (False, True):
                self.assertEqual(workloads.spec_bytes(name, 7, smoke),
                                 workloads.spec_bytes(name, 7, smoke))
                self.assertNotEqual(workloads.spec_bytes(name, 7, smoke),
                                    workloads.spec_bytes(name, 8, smoke))

    def test_same_seed_same_store_checksums(self):
        graph_pack = run.build_dir() / "rumor" / "tools" / "graph_pack"
        scratch = run.build_dir() / "tests"
        scratch.mkdir(parents=True, exist_ok=True)
        provs = []
        for seed in (7, 7, 8):
            with tempfile.TemporaryDirectory(dir=scratch) as work:
                provs.append(workloads.generate("empirical_mmap", seed, Path(work), graph_pack,
                                                smoke=True))
        self.assertEqual(provs[0], provs[1])
        for store in ("chung_lu", "watts_strogatz"):
            self.assertTrue(provs[0]["stores"][store]["checksum"].startswith("fnv1a64:"))
            self.assertNotEqual(provs[0]["stores"][store]["checksum"],
                                provs[2]["stores"][store]["checksum"])


class Smoke(unittest.TestCase):
    def test_every_workload_finishes_in_seconds_and_passes_its_checks(self):
        for name in workloads.NAMES:
            for trace in ("0", "1"):
                start = time.monotonic()
                out = run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                                "--trace", trace, "--smoke")
                elapsed = time.monotonic() - start
                self.assertEqual(out.returncode, 0, out.stderr)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertTrue(result["correct"], (name, trace))
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertLess(elapsed, SMOKE_LIMIT_S, (name, trace))

    def test_fails_without_the_source_tree(self):
        scratch = run.build_dir() / "tests"
        scratch.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(PERFBENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                  "paper_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                                 cwd=tmp, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
