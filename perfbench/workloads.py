"""The benchmark's three workloads: campaign specs and graph stores made from a seed.

Every input is a pure function of (workload, seed, smoke): the same seed
gives byte-identical spec files and graph stores with the same checksums.
Specs name stores by paths relative to the workload's work directory, which
is where rumor_bench and perf_replay run.
"""

import hashlib
import json
import os
import subprocess

NAMES = ("paper_sweep", "empirical_mmap", "checkpointed_grid")

# How rumor_bench is run on each workload (block size, checkpoint cadence).
RUN = {
    "paper_sweep": {"batch": 64, "checkpoint_every": 0},
    "empirical_mmap": {"batch": 1, "checkpoint_every": 0},
    "checkpointed_grid": {"batch": 16, "checkpoint_every": 16},
}

_MASK = (1 << 64) - 1


def _splitmix(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive(seed, tag):
    """A seed in [1, 2^31] for one purpose (`tag`), derived from the workload seed."""
    h = seed & _MASK
    for ch in tag.encode():
        h = _splitmix(h ^ ch)
    return h % (1 << 31) + 1


def _paper_sweep(seed, smoke):
    trials = 64 if smoke else 256
    big = 1 << (8 if smoke else 14)
    hypercube = {"graph": "hypercube", "n": big}
    regular = {"graph": "random_regular", "n": big, "degree": 6}
    both = ["sync", "async"]
    # The batch cells get their own trial streams, so the KS gate compares
    # independent samples of the sync and batch laws on the same graphs.
    batch = {"engine": {"kind": "batch_sync", "lanes": 64}, "seed": derive(seed, "paper.batch")}
    return {
        "name": "paper_sweep",
        "defaults": {"trials": trials, "seed": derive(seed, "paper.trials"),
                     "graph_seed": derive(seed, "paper.graph"), "mode": "push-pull",
                     "source": 0},
        "configs": [
            dict(hypercube, engine=both),
            dict(regular, engine=both),
            {"graph": "star", "n": big // 4, "engine": both},
            {"graph": "double_star", "n": big // 16, "engine": both},
            dict(hypercube, **batch),
            dict(regular, **batch),
        ],
    }


def _empirical_stores(seed, smoke):
    n = 1 << (13 if smoke else 22)
    return [
        ("chung_lu", ["--family", "chung_lu", "--n", str(n), "--beta", "2.1",
                      "--average-degree", "8", "--graph-seed", str(derive(seed, "emp.chung_lu"))]),
        ("watts_strogatz", ["--family", "watts_strogatz", "--n", str(n), "--degree", "8",
                            "--p", "0.05", "--graph-seed", str(derive(seed, "emp.ws"))]),
    ]


def _empirical_mmap(seed, smoke):
    stores = _empirical_stores(seed, smoke)
    return {
        "name": "empirical_mmap",
        "defaults": {"trials": 2 if smoke else 4, "seed": derive(seed, "emp.trials"),
                     "engine": "sync", "mode": "push-pull", "source": 0},
        "configs": [{"graph": {"kind": "file", "path": f"stores/{name}.rgs"}}
                    for name, _ in stores],
    }


def _checkpointed_grid(seed, smoke):
    sizes = [k * k for k in range(8, 10 if smoke else 16)]
    graph_seed = derive(seed, "grid.graph")
    families = [
        {"graph": "cycle"},
        {"graph": "wheel"},
        {"graph": "torus"},
        {"graph": "tree"},
        {"graph": "random_regular", "degree": 4, "graph_seed": graph_seed},
        {"graph": "erdos_renyi", "p": 0.1, "graph_seed": graph_seed},
    ]
    return {
        "name": "checkpointed_grid",
        "defaults": {"trials": 16 if smoke else 64, "seed": derive(seed, "grid.trials"),
                     "source": 0},
        "configs": [dict(f, n=sizes, engine=["sync", "async"], mode=["push", "pull", "push-pull"])
                    for f in families],
    }


_SPECS = {
    "paper_sweep": _paper_sweep,
    "empirical_mmap": _empirical_mmap,
    "checkpointed_grid": _checkpointed_grid,
}


def spec_bytes(name, seed, smoke=False):
    """The campaign spec of `name` for `seed`, as the exact bytes written to disk."""
    spec = _SPECS[name](seed, smoke)
    return (json.dumps(spec, sort_keys=True, indent=1) + "\n").encode()


def store_info(graph_pack, path):
    """The header fields `graph_pack --info` prints for a store, as a dict."""
    out = subprocess.run([str(graph_pack), "--info", str(path)], check=True,
                         capture_output=True, text=True).stdout
    info = {}
    for line in out.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            info[key.strip()] = value.strip()
    return info


def generate(name, seed, work, graph_pack, smoke=False):
    """Writes the workload's inputs under `work`; returns a provenance dict.

    Stores are packed with graph_pack and reused while the same seed and
    arguments are asked for again; stores of other seeds are removed, so
    at most one seed's stores sit on disk.
    """
    work.mkdir(parents=True, exist_ok=True)
    (work / "spec.json").write_bytes(spec_bytes(name, seed, smoke))
    prov = {"spec_sha256": hashlib.sha256(spec_bytes(name, seed, smoke)).hexdigest()}
    if name != "empirical_mmap":
        return prov
    stores = work / "stores"
    stores.mkdir(exist_ok=True)
    jobs = []
    for store, argv in _empirical_stores(seed, smoke):
        path = stores / f"{store}.rgs"
        stamp = stores / f"{store}.args"
        wanted = " ".join(argv)
        if path.exists() and stamp.exists() and stamp.read_text() == wanted:
            continue
        for stale in (path, stamp):
            stale.unlink(missing_ok=True)
        log = open(stores / f"{store}.log", "wb")
        jobs.append((subprocess.Popen([str(graph_pack), *argv, "--out", str(path)],
                                      stdout=log, stderr=subprocess.STDOUT), stamp, wanted, log))
    failed = []
    for proc, stamp, wanted, log in jobs:
        if proc.wait() == 0:
            # graph_pack does not fsync: write the fresh store back now, so
            # that its writeback does not overlap the timed runs.
            fd = os.open(stamp.with_suffix(".rgs"), os.O_RDONLY)
            os.fsync(fd)
            os.close(fd)
            stamp.write_text(wanted)
        else:
            failed.append(stamp.stem)
        log.close()
    if failed:
        raise RuntimeError(f"graph_pack failed for {', '.join(failed)} (see {stores}/*.log)")
    prov["stores"] = {}
    for store, _ in _empirical_stores(seed, smoke):
        info = store_info(graph_pack, stores / f"{store}.rgs")
        prov["stores"][store] = {k: info.get(k) for k in ("name", "nodes", "edges", "file_size",
                                                          "checksum")}
    return prov
