#!/usr/bin/env python3
"""Builds and runs the host-time benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Builds perfbench/ (which compiles the library from src/) into .bench_build/
at the repository root with CMake, then runs one workload. The last line of
standard output is the JSON result. The exit status is non-zero when the
build or any output check fails. A traced run also writes its spans as a
Chrome trace to .bench_build/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
# A run takes --seconds plus set-up and the last pass; stop a hung one.
RUN_TIMEOUT_S = 170


def build() -> bool:
    """Configures (once) and builds the benchmark; logs go to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-matrix", "compile-verify", "array-1024"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass at scale 0.1 (the benchmark's tests)")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", str(HERE / "reference.json")]
    if args.trace:
        traces = BUILD.parent / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--chrome-trace",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
