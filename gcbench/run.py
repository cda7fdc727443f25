#!/usr/bin/env python3
"""Build and run the layered collector benchmark.

    python3 gcbench/run.py --workload churn --seed 7 --seconds 20 --trace 0

Run from the root of the repository.  Builds gcbench/main.exe with dune
(the collector library is compiled from the sources in the same tree),
runs it, and passes its output through.  The last line printed is the
result object {"correct", "attempted", "failed", "metrics"}.  Exits
non-zero, without a result line, when the tree cannot be built, and
with the benchmark's own status otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["churn", "live-heap"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"gcbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for needed in ["dune-project", "lib", "gcbench/dune"]:
        if not os.path.exists(needed):
            fail(f"'{needed}' not found: run from the root of a full source tree")

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./gcbench/main.exe"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")

    cmd = [
        "_build/default/gcbench/main.exe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--nproc", str(len(os.sched_getaffinity(0))),
    ]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except ValueError as e:
        sys.stdout.write(run.stdout)
        fail(f"no result line ({e})")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
