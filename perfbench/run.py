#!/usr/bin/env python3
"""Benchmark entry point for the agile-paging simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload walk_bound --seed 1 --seconds 15 --trace 0

`--workload all` runs the three workloads one after another. The script
builds `perfbench/` (a Cargo package of its own that depends on
`crates/core` by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it, and prints one JSON object as the last
line of stdout:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics listed in BENCHMARK.json,
`--trace 1` the per-layer ones. The line before it, starting with
`# provenance`, records the host core count, the git revision (when the
checkout is a git repository), a hash of the sources, the build profile,
the workload seed, the paranoia setting and the simulated-statistics
digest.

`correct` is false when any operation failed, when a repetition inside
the run drifted from the first, or when the digest (or, for traced runs,
the per-layer counts) differs from the one an earlier run recorded for
the same sources, workload and seed. Those records live in
`$CARGO_TARGET_DIR/perfbench-digests.json`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("walk_bound", "churn_bound", "paranoid_matrix")
# The seed used while the benchmark was written; claims are confirmed on
# HELD_OUT_SEED, which was never used for tuning.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20161
# A run must end within 180 s, not counting the build.
RUN_TIMEOUT_S = 170
BUILD_PROFILE = "release"

BENCH_DIR = Path(__file__).resolve().parent


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not 1 <= args.seconds <= 3600:
        p.error("--seconds must be between 1 and 3600")
    if not 0 <= args.seed < 2**64:
        p.error("--seed must fit in 64 unsigned bits")
    return args


def source_hash(root):
    """SHA-256 over the simulator's and the benchmark's sources."""
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in (root / "crates", BENCH_DIR):
        files += [p for p in top.rglob("*") if p.is_file() and "target" not in p.parts]
    for path in sorted(files):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def check_store(store_path, key, record):
    """Compares `record` with the one stored under `key` (storing it when
    absent) and returns the fields that disagree."""
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    old = store.get(key, {})
    mismatched = [k for k, v in record.items() if v is not None and old.get(k) not in (None, v)]
    merged = dict(old)
    merged.update({k: v for k, v in record.items() if v is not None})
    store[key] = merged
    fd, tmp = tempfile.mkstemp(dir=store_path.parent, prefix=".digests-")
    with os.fdopen(fd, "w") as f:
        json.dump(store, f, indent=1, sort_keys=True)
    os.replace(tmp, store_path)
    return mismatched


def run_workload(binary, root, target, spec, args, workload, provenance):
    cmd = [
        str(binary),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    report = json.loads(lines[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in report["metrics"].items()}
    if want != got:
        print(f"perfbench: {workload} reported metrics that do not match BENCHMARK.json: "
              f"missing {sorted(want.keys() - got.keys())}, extra {sorted(got.keys() - want.keys())}",
              file=sys.stderr)
        return None

    problems = list(report["problems"])
    key = f"{provenance['source_hash']}/{workload}/{args.seed}"
    record = {"digest": report["digest"], "counts_digest": report["counts_digest"]}
    for field in check_store(target / "perfbench-digests.json", key, record):
        problems.append(f"{field} differs from an earlier run of the same sources and seed")
    for p in problems:
        print(f"perfbench: {workload}: {p}", file=sys.stderr)

    prov = dict(provenance)
    prov.update({
        "workload": workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "paranoia": report["paranoia"],
        "threads": report["threads"],
        "nproc": report["nproc"],
        "repetitions": report["reps"],
        "violations": report["violations"],
        "host_slowdown": report["host_slowdown"],
        "digest": report["digest"],
        "counts_digest": report["counts_digest"],
    })
    print("# provenance " + json.dumps(prov, sort_keys=True))
    return {
        "correct": not problems and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }


def main():
    args = parse_args()
    root = Path.cwd()
    if not (root / "crates" / "core" / "Cargo.toml").is_file():
        print("perfbench: run from the root of a source checkout (crates/core not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = target / BUILD_PROFILE / "agile-perfbench"
    provenance = {
        "git_rev": git_rev(root),
        "source_hash": source_hash(root),
        "build_profile": BUILD_PROFILE,
        "held_out_seed": HELD_OUT_SEED,
    }
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result = run_workload(binary, root, target, spec, args, workload, provenance)
        if result is None:
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
