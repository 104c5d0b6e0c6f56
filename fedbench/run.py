#!/usr/bin/env python3
"""Build the federation benchmark from source and run one workload.

Run from the repository root:

    python3 fedbench/run.py --workload local_join --seed 1 --seconds 10 --trace 0

Workloads: local_join, local_scan, remote_rls, cache_hit (see the header
of fedbench/fedbench.cc). The first run configures and builds the
benchmark into .bench_build/fedbench, which takes a few minutes; later
runs only check that the build is up to date. Build output goes to
stderr. The last line of stdout is the benchmark's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "fedbench"
WORKLOADS = ("local_join", "local_scan", "remote_rls", "cache_hit")
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("fedbench: GridDB sources not found next to fedbench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "fedbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return BUILD / "fedbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"fedbench: build failed: {err}")

    try:
        result = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             args.trace],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"fedbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
