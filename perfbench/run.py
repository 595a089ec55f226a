#!/usr/bin/env python3
"""Build and run the stable-heap benchmark; print one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload oo7_divided --seed 1 --seconds 10 --trace 0

--trace 0 runs the `perfbench` binary (tracing compiled out) and reports the
end-to-end metrics; --trace 1 runs `perfbench_traced` and reports the
per-layer metrics. --self-check perturbs the benchmark's model by one unit
before the final audit, so the result must read "correct": false.

The library is built from this checkout with its own CMake project, inside
`.bench_build/` (first run only; later runs re-check it in about a second).
Each run keeps its heap files in a directory under `.bench_build/` and
deletes it when it ends, pass or fail.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("debit_credit_4t", "oo7_divided", "oo7_all_stable")
BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 150


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(root, target):
    """Configure (once) and build `target`; returns the binary's path."""
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", out, "--target", target, "-j4"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(root, "src", "core"))):
        log("run from the repository root: no sheap sources in " + root)
        return 2
    try:
        binary = build(root, "perfbench_traced" if args.trace else "perfbench")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return 2

    run_dir = os.path.join(root, ".bench_build", "run-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--dir", run_dir]
    if args.self_check:
        cmd.append("--self-check")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("benchmark exited with code %d" % proc.returncode)
        return proc.returncode or 4
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 5
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
