#!/usr/bin/env python3
"""The repository's benchmark: campaign workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the source tree. Each run:

  1. builds rumor_bench, graph_pack and perf_replay from source (CMake,
     Release) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
  2. writes the workload's campaign spec (and, for empirical_mmap, packs its
     graph stores with graph_pack) from --seed;
  3. with --trace 0, runs the unmodified `rumor_bench --campaign` process
     back to back, one at a time, for --seconds, and reports the medians of
     the end-to-end metrics; with --trace 1, alternates plain and `--trace`
     processes for --seconds, then runs perf_replay's single-threaded traced
     replay and reports the per-layer metrics and the layer ledger;
  4. checks the outputs (see perf_replay.cpp and README.md) and prints one
     provenance line and, last, one JSON result line.

Other flags: --smoke shrinks every workload to seconds, --build-only builds
and exits. README.md in this directory documents workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

ROOT = HERE.parent
THREADS = max(1, min(4, os.cpu_count() or 1))
PROCESS_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "trials_per_s": "trials/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "correct_trial_frac": "frac",
}

PER_LAYER = {
    "graph.build_ms": "ms",
    "graph.open_ms": "ms",
    "graph.neighbor_ns": "ns",
    "graph.minor_faults": "count",
    "graph.store_mb": "MB",
    "graph.llc_mb": "MB",
    "core.engine_s": "s",
    "core.sync.us_per_trial": "us",
    "core.sync.ns_per_round": "ns",
    "core.sync.rounds_per_trial": "count",
    "core.async.us_per_trial": "us",
    "core.async.ns_per_event": "ns",
    "core.async.events_per_trial": "count",
    "core.batch_sync.us_per_trial": "us",
    "core.batch_sync.speedup": "x",
    "core.batch_sync.speedup.hypercube": "x",
    "core.batch_sync.speedup.hypercube.q1": "x",
    "core.batch_sync.speedup.hypercube.q3": "x",
    "core.batch_sync.speedup.random_regular": "x",
    "core.batch_sync.speedup.random_regular.q1": "x",
    "core.batch_sync.speedup.random_regular.q3": "x",
    "core.useful_contact_frac": "frac",
    "stats.fold_ns_per_trial": "ns",
    "stats.merge_us_per_block": "us",
    "sim.spec_parse_ms": "ms",
    "sim.snapshot_render_ms": "ms",
    "sim.snapshot_mb": "MB",
    "sim.durable_write_ms": "ms",
    "sim.checkpoint_writes": "count",
    "sim.checkpoint_share": "frac",
    "sim.campaign_resumable_s": "s",
    "sim.report_ms": "ms",
    "sim.report_mb": "MB",
    "sim.worker_util": "frac",
    "sim.parallel_eff": "frac",
    "obs.trace_overhead_frac": "frac",
    "rng.next_ns": "ns",
    "ledger.replay_s": "s",
    "ledger.residual_frac": "frac",
    "layer.graph.self_s": "s",
    "layer.core.self_s": "s",
    "layer.stats.self_s": "s",
    "layer.sim.self_s": "s",
    "layer.dist.self_s": "s",
    "layer.rng.self_s": "s",
    "layer.bench.self_s": "s",
}


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def median(values):
    return statistics.median(values) if values else 0.0


# --- build --------------------------------------------------------------------


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configures (once) and builds the three binaries; returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a rumor source tree (no CMakeLists.txt and src/)", 2)
    cache = bdir / "CMakeCache.txt"
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}"
    if cache.exists() and home not in cache.read_text(errors="replace").splitlines():
        shutil.rmtree(bdir)  # configured for another source tree
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    steps = []
    if not cache.exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", str(os.cpu_count() or 1), "--target",
                  "rumor_bench", "graph_pack", "perf_replay"])
    with open(log, "wb") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    return {
        "rumor_bench": bdir / "rumor" / "bench" / "rumor_bench",
        "graph_pack": bdir / "rumor" / "tools" / "graph_pack",
        "perf_replay": bdir / "perf_replay",
    }


# --- processes ----------------------------------------------------------------


def run_process(cmd, cwd, stdout_path):
    """Runs one process to completion; returns wall time and its own rusage."""
    err_path = Path(str(stdout_path) + ".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")[-2000:]
    err_path.unlink()
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "minor_faults": ru.ru_minflt,
        "stderr": stderr,
    }


def run_json(cmd, cwd, what):
    """Runs a helper that prints one JSON document; fails loudly on error."""
    res = subprocess.run([str(c) for c in cmd], cwd=cwd, capture_output=True, text=True,
                         timeout=PROCESS_TIMEOUT_S)
    if res.returncode != 0:
        fail(f"{what} failed (exit {res.returncode}):\n{res.stderr.strip()}")
    return json.loads(res.stdout)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def campaign_cmd(bins, name, trace_file=None):
    run = workloads.RUN[name]
    cmd = [bins["rumor_bench"], "--campaign", "spec.json", "--json", "--threads", THREADS,
           "--batch", run["batch"]]
    if run["checkpoint_every"]:
        cmd += ["--checkpoint", "checkpoint.json", "--checkpoint-every", run["checkpoint_every"]]
    if trace_file:
        cmd += ["--trace", trace_file]
    return cmd


class Runs:
    """The campaign processes of one benchmark run and what they printed."""

    def __init__(self, work, spec_trials):
        self.work = work
        self.spec_trials = spec_trials
        self.samples = []
        self.reference = None   # path of the first complete report
        self.reference_sha = None
        self.bad = 0            # processes that failed or printed another report

    def run(self, cmd, tag):
        (self.work / "checkpoint.json").unlink(missing_ok=True)
        out = self.work / f"report_{tag}.json"
        r = run_process(cmd, self.work, out)
        r["tag"] = tag
        self.samples.append(r)
        if r["rc"] != 0:
            print(f"run.py: campaign process exited {r['rc']}: {r['stderr']}", file=sys.stderr)
            self.bad += 1
        elif self.reference is None:
            self.reference, self.reference_sha = out, sha256(out)
            return r
        elif sha256(out) != self.reference_sha:
            print(f"run.py: {out.name} differs from {self.reference.name}", file=sys.stderr)
            self.bad += 1
        out.unlink()
        return r


def check_failures(check, spec_trials):
    """Trials per process that fail the replay's checks."""
    failed = sum(c["trials"] for c in check["cells"] if not c["ok"])
    for c in check["cells"]:
        if not c["ok"]:
            print(f"run.py: check failed for {c['id']}: {c['detail']}", file=sys.stderr)
    if not check["report_bytes_equal"]:
        print("run.py: report bytes differ from the replay's rendering", file=sys.stderr)
        failed = spec_trials
    return failed


# --- provenance -----------------------------------------------------------------


def llc_mb():
    """Largest CPU cache size reported by sysfs, in MB (0 when unreadable)."""
    best = 0
    for size in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = size.read_text().strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    return best / 1e6


def provenance(bins, args, inputs):
    version = subprocess.run([str(bins["rumor_bench"]), "--version"], capture_output=True,
                             text=True).stdout.strip()
    return {
        "rumor_bench_version": version,
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "llc_mb": llc_mb(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "inputs": inputs,
    }


# --- the two kinds of run -------------------------------------------------------------


def end_to_end(args, bins, work, spec_trials):
    name = args.workload
    setup = []
    runs = Runs(work, spec_trials)
    start = time.perf_counter()
    i = 0
    while True:
        runs.run(campaign_cmd(bins, name), i)
        # Set-up repetitions between the processes, so that they sample the
        # same stretch of machine time as the campaign processes do; each
        # call reports its fastest repetition.
        setup.append(run_json([bins["perf_replay"], "setup", "--spec", "spec.json"], work,
                              "set-up timing")["setup_s"])
        i += 1
        if time.perf_counter() - start >= args.seconds:
            break
    attempted = spec_trials * len(runs.samples)
    failed = spec_trials * runs.bad
    extra = {}
    if runs.reference is None:
        failed = attempted
    else:
        check = run_json([bins["perf_replay"], "check", "--spec", "spec.json", "--report",
                          runs.reference.name, "--batch", workloads.RUN[name]["batch"],
                          "--threads", THREADS], work, "output check")
        failed += check_failures(check, spec_trials) * (len(runs.samples) - runs.bad)
        extra["ks"] = check["ks"]
        if workloads.RUN[name]["checkpoint_every"]:
            # Checkpoints must not change a byte of the report.
            plain = [c for c in campaign_cmd(bins, name)]
            k = plain.index("--checkpoint")
            del plain[k:k + 4]
            r = run_process(plain, work, work / "report_plain.json")
            same = r["rc"] == 0 and sha256(work / "report_plain.json") == runs.reference_sha
            extra["checkpoint_free_report_identical"] = same
            if not same:
                print("run.py: report without checkpoints differs", file=sys.stderr)
                failed = attempted
    ok = [s for s in runs.samples if s["rc"] == 0] or runs.samples
    metrics = {
        "wall_s": median([s["wall_s"] for s in ok]),
        "trials_per_s": median([spec_trials / s["wall_s"] for s in ok]),
        "cpu_s": median([s["cpu_s"] for s in ok]),
        "setup_s": median(setup),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in ok]),
        "correct_trial_frac": 1.0 - failed / attempted,
    }
    extra["processes"] = [{k: v for k, v in s.items() if k != "stderr"} for s in runs.samples]
    extra["setup_samples_s"] = setup
    return metrics, attempted, failed, extra


def per_layer(args, bins, work, spec_trials):
    name = args.workload
    runs = Runs(work, spec_trials)
    plain, traced = [], []
    start = time.perf_counter()
    i = 0
    while True:
        plain.append(runs.run(campaign_cmd(bins, name), f"plain{i}")["wall_s"])
        traced.append(runs.run(campaign_cmd(bins, name, "trace.json"), f"traced{i}")["wall_s"])
        i += 1
        if time.perf_counter() - start >= args.seconds:
            break
    attempted = spec_trials * len(runs.samples)
    failed = spec_trials * runs.bad
    if runs.reference is None:
        fail("no campaign process completed; nothing to replay")
    replay_cmd = [bins["perf_replay"], "trace", "--spec", "spec.json", "--report",
                  runs.reference.name, "--batch", workloads.RUN[name]["batch"]]
    if workloads.RUN[name]["checkpoint_every"]:
        replay_cmd += ["--checkpoint-every", workloads.RUN[name]["checkpoint_every"]]
    replay = run_json(replay_cmd, work, "traced replay (layer ledger)")
    failed += check_failures(replay, spec_trials) * (len(runs.samples) - runs.bad)
    if replay["resumable_report_equal"] is False:
        print("run.py: run_campaign_resumable's report differs", file=sys.stderr)
        failed = attempted

    registry = json.loads((work / "trace.json").read_text())["metrics"]
    totals = registry["totals"]
    m = dict(replay["metrics"])
    by_family = m.pop("core.batch_sync.speedup_by_family")
    for family in ("hypercube", "random_regular"):
        q = by_family.get(family, {})
        m[f"core.batch_sync.speedup.{family}"] = q.get("median", 0.0)
        m[f"core.batch_sync.speedup.{family}.q1"] = q.get("q1", 0.0)
        m[f"core.batch_sync.speedup.{family}.q3"] = q.get("q3", 0.0)
    wall = median(plain)
    busy = totals["busy_ns"] + totals["idle_ns"]
    m["graph.llc_mb"] = llc_mb()
    m["sim.checkpoint_writes"] = registry["checkpoint_writes"]
    m["sim.checkpoint_share"] = registry["checkpoint_write_ns"]["sum"] / registry["wall_ns"]
    m["sim.worker_util"] = totals["busy_ns"] / busy if busy else 0.0
    m["sim.parallel_eff"] = m["core.engine_s"] / (THREADS * wall)
    m["obs.trace_overhead_frac"] = median(traced) / wall - 1.0
    ledger = replay["ledger"]
    m["ledger.replay_s"] = ledger["replay_s"]
    m["ledger.residual_frac"] = ledger["residual_frac"]
    for layer in ("graph", "core", "stats", "sim", "dist", "rng", "bench"):
        m[f"layer.{layer}.self_s"] = ledger["layers"].get(layer, 0.0)
    extra = {"ledger": ledger, "ks": replay["ks"], "registry": registry,
             "plain_wall_s": plain, "traced_wall_s": traced}
    return m, attempted, failed, extra


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    p.add_argument("--build-only", action="store_true")
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0", 2)

    bdir = build_dir()
    bins = build(bdir)
    if args.build_only:
        return 0
    if args.workload is None:
        fail("--workload is required", 2)

    work = bdir / "work" / args.workload
    inputs = workloads.generate(args.workload, args.seed, work, bins["graph_pack"], args.smoke)
    for stale in [*work.glob("report_*"), *work.glob("*checkpoint*.json"), work / "trace.json"]:
        stale.unlink(missing_ok=True)
    spec = json.loads((work / "spec.json").read_text())
    spec_trials = run_json([bins["perf_replay"], "count", "--spec", "spec.json"], work,
                           "spec expansion")["trials"]

    body = per_layer if args.trace else end_to_end
    metrics, attempted, failed, extra = body(args, bins, work, spec_trials)
    units = PER_LAYER if args.trace else END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        fail(f"metrics not measured: {sorted(missing)}")
    prov = provenance(bins, args, inputs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    results = bdir / "results"
    results.mkdir(exist_ok=True)
    record = dict(result, provenance=prov, detail=extra, spec=spec)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
