#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tune|sim|compile --seed N \
        --seconds S --trace 0|1 [--programs a,b,...]

The benchmark is built with dune inside the checkout (the shared dune
cache is disabled, so nothing is written outside it). With --trace 0
the last line of stdout is the end-to-end result. With --trace 1 an
untraced run of the same workload and seed runs first, and its
pass_cpu_s is handed to the traced run, which reports the per-layer
metrics and the tracing overhead against it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

TARGET = "perfbench/main.exe"
EXE = os.path.join("_build", "default", TARGET)
DEADLINE_S = 170  # every run must end within 180 s once built
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout: dune-project and lib/ are missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            dune_command() + ["build", "--root", ".", TARGET],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def run_bench(args, deadline):
    """Run main.exe; return its output lines and parsed result line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time")
    try:
        proc = subprocess.run(
            [EXE] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        fail(f"main.exe did not finish within {DEADLINE_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"main.exe exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("main.exe printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["tune", "sim", "compile"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--programs", help="comma-separated subset of the workload's programs")
    a = ap.parse_args()

    build()
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    if a.programs:
        common += ["--programs", a.programs]
    lines, result = run_bench(common + ["--trace", "0"], deadline)
    if a.trace == 1:
        sys.stderr.write("\n".join(lines) + "\n")
        untraced = result["metrics"]["pass_cpu_s"]["value"]
        lines, result = run_bench(
            common + ["--trace", "1", "--untraced-pass-cpu-s", repr(untraced)], deadline
        )
    print("\n".join(lines))


if __name__ == "__main__":
    main()
