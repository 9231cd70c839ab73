#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-silent --seed 1 --seconds 10 --trace 0

Every call configures and builds into .bench_build/ (Release); after the
first call that is a quick incremental no-op unless sources changed. A build
tree that cannot be reused (configured for another source directory, because
the checkout was copied or moved, or left broken) is emptied and built once
more from scratch, one compile at a time. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
Exits non-zero without a result when the build fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("sim-silent", "sim-recovery", "sim-services", "udp-services")


def compile_tree(jobs):
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", str(jobs)]]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def empty_build_tree():
    for name in os.listdir(BUILD):
        if name == ".lock":
            continue
        path = os.path.join(BUILD, name)
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path)
        else:
            os.remove(path)


def build():
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if compile_tree(max(1, min(4, os.cpu_count() or 1))):
            return True
        sys.stderr.write("perfbench: emptying %s and building again\n" % BUILD)
        empty_build_tree()
        return compile_tree(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not build():
        return 1
    binary = os.path.join(BUILD, "ssr_perfbench")
    argv = [binary,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--trace", args.trace,
            "--node-bin", os.path.join(BUILD, "ssr", "ssr_node"),
            "--out-dir", os.path.join(BUILD, "out")]
    sys.stdout.flush()
    sys.stderr.flush()
    # Replace this process, so the benchmark is the only process left to
    # wait for.
    os.execv(binary, argv)


if __name__ == "__main__":
    sys.exit(main())
