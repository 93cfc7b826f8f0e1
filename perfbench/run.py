#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload noc_ur_sweep --seed 1 \
        --seconds 30 --trace 0 [--threads N]

hnoc_perfbench is built with CMake into .bench_build/perfbench (configured
once, then rebuilt incrementally). Its stdout is relayed, and the last
line printed is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, without a result line, when the simulator sources are
missing, the build fails, or hnoc_perfbench fails or times out.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("noc_ur_sweep", "noc_mesh32", "cmp_apps")
RUN_TIMEOUT_S = 170

# Environment knobs the simulator reads. They change window lengths
# (HNOC_SIM_SCALE), the stepping path or block size, the default pool
# size, or add file output, so they are pinned to their defaults.
PINNED_ENV = ("HNOC_SIM_SCALE", "HNOC_THREADS", "HNOC_ALWAYS_STEP",
              "HNOC_BLOCK_TILES", "HNOC_JSON_DIR", "HNOC_CSV_DIR")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "hnoc_perfbench")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the simulator and benchmark sources, path-ordered."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def check_result(line):
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"}:
            raise ValueError(f"metric {name} malformed")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=0,
                    help="JobPool size (default: nproc)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.threads < 0:
        fail("--seconds must be at least 1; --seed and --threads >= 0")

    binary = build()
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads), "--commit", git_commit(),
           "--source", source_digest()]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"hnoc_perfbench exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"hnoc_perfbench exited with code {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        res = check_result(lines[-1])
    except (ValueError, KeyError, TypeError) as e:
        fail(f"hnoc_perfbench printed no valid result line: {e}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
