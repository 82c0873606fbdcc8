#!/usr/bin/env python3
"""Builds and runs the online-path benchmark of Vapro.

    python3 perfbench/run.py --workload cg_online|cluster_heavy|nekbone_served \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the library sources and the benchmark
program (Release) into .bench_build/, runs the harness self-test, then one
measured run.  Everything the program prints is forwarded; the last stdout
line is the result object {"correct", "attempted", "failed", "metrics"}.
A build failure, a failed self-test or output check, or a malformed result
exits non-zero without printing a result.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("cg_online", "cluster_heavy", "nekbone_served")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/ — run from the repository root")
    # The first run configures and builds; later runs find it up to date.
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_checked(cmd):
    """Runs cmd, killing it (and waiting) if it overruns; returns stdout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail("exit code %d: %s" % (proc.returncode, " ".join(cmd)))
    return out


def valid_result(result):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return False
    if result["correct"] is not True or not isinstance(result["metrics"], dict):
        return False
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return False
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return False
    for metric in result["metrics"].values():
        if set(metric) != {"value", "unit"}:
            return False
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return False
    return bool(result["metrics"])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    sys.stdout.write(run_checked([os.path.join(BUILD, "perfbench_selftest")]))

    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(BUILD, "vapro_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work]
    if args.trace == "1":
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        out = run_checked(cmd)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not valid_result(result):
        sys.stdout.write(out)
        fail("malformed result line")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
