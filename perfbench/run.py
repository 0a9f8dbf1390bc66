#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (which pulls in the
repository's own CMake project) under .bench_build/; later runs rebuild
incrementally. The benchmark binary's output is passed through, and its
last line -- one JSON object with "correct", "attempted", "failed" and
"metrics" -- is checked for shape before this script exits 0.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("bulk", "fleet", "wsp_lossy")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "mpq_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(env):
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "mpq_perfbench", "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    if not isinstance(result["failed"], int):
        raise ValueError("failed must be an integer")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(
                metric["value"], (int, float)):
            raise ValueError("malformed metric %s" % name)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.isfile(needed):
            fail("missing %s: run from the root of a repository checkout"
                 % needed)

    # Keep compiler and benchmark temporaries inside the checkout.
    env = dict(os.environ)
    env["TMPDIR"] = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        build(env)
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err)

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.join(".bench_build", "scratch")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        check_result(lines[-1])
    except ValueError as err:
        sys.stdout.write(proc.stdout)
        fail("malformed result line: %s" % err)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
