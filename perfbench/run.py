#!/usr/bin/env python3
"""Seeded benchmark of the SAFARA compiler, simulators and compile daemon.

    python3 perfbench/run.py --workload compile|tune|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. Builds the compiler and the
benchmark program (perfbench/src) with dune into .bench_build (or
$CARGO_TARGET_DIR when set), then runs that program, whose last line on
stdout is the JSON result. Build output goes to stderr. Exits non-zero
without a result when the checkout does not build.

Workloads, metrics and how inputs are drawn from the seed are described
at the top of perfbench/src/perfbench.ml.
"""
import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("compile", "tune", "serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, stdout=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {cmd[0]} timed out after {timeout} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    program = os.path.join(build_dir, "default", "perfbench", "src",
                           "perfbench.exe")
    saraccc = os.path.join(build_dir, "default", "bin", "saraccc.exe")
    code = run_group(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "./perfbench/src/perfbench.exe",
         "./bin/saraccc.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        sys.exit("perfbench: build failed")
    code = run_group(
        [program, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--saraccc", saraccc],
        RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
