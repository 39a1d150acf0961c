#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload replay_tx --seed 1 --seconds 10 --trace 0

The driver prints a few summary lines and, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`. Build
outputs go to `.bench_build/`; spans of traced runs to
`.bench_build/perfbench/`.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["replay_tx", "replay_kv", "explore"]
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    # The driver links the repository's libraries: without their sources
    # there is nothing to build.
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (dune-project and lib/ not found)", file=sys.stderr)
        return 2

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, TARGET],
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", os.path.join(BUILD_DIR, "perfbench")]
    try:
        # subprocess.run kills and reaps the driver on timeout.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
