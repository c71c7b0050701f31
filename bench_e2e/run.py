#!/usr/bin/env python3
"""Builds bench_e2e from this checkout's sources and runs one workload.

Usage, from the repository root:

    python3 bench_e2e/run.py --workload heat --seed 1 --seconds 25 --trace 0

The first run configures and builds a Release tree in .bench_build/ at the
repository root; later runs rebuild incrementally.  The benchmark's output
is passed through, and its last line is the result object
{"correct", "attempted", "failed", "metrics"}.  For seed 1 the delivery
digest is also compared with the one recorded in digests.json; a mismatch
is reported, not counted as a failure, because a change may move virtual
delivery times on purpose.

Exits non-zero, without a result line, when the benchmark cannot be built
or does not produce a result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("heat", "churn", "fanout", "store")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the bench_e2e target; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: the library sources (src/) are not in this checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: bench_e2e did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(proc.stdout)
        sys.exit(f"run.py: bench_e2e exited {proc.returncode} without a result line")

    for line in lines[:-1]:
        print(line)
    if args.seed == 1:
        with open(os.path.join(HERE, "digests.json")) as f:
            recorded = json.load(f).get(args.workload)
        digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
        status = "matches" if digest == recorded else f"differs from recorded {recorded}"
        print(f"seed-1 digest {digest} {status}")
    print(lines[-1])


if __name__ == "__main__":
    main()
