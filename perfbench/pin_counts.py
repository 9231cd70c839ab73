#!/usr/bin/env python3
"""Pins or checks the exact per-layer counts of the simulator workloads.

Run from the root of a checkout:

    python3 perfbench/pin_counts.py           # rewrite reference_counts.json
    python3 perfbench/pin_counts.py --check   # exit 1 if any count differs

Counts (unit "count") and virtual-time latencies (unit "ms") of the
simulator workloads are exact for a seed, so any difference means the
protocol, or the benchmark's load, behaves differently.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference_counts.json")
WORKLOADS = ("sim-silent", "sim-recovery", "sim-services")
SEEDS = (1, 7919)  # the default and the held-out seed
EXACT_UNITS = ("count", "ms")


def measure():
    pinned = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", "1", "--trace", "1"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                sys.exit("pin_counts: %s seed %d failed:\n%s"
                         % (workload, seed, done.stdout[-2000:]))
            pinned["%s/seed-%d" % (workload, seed)] = {
                name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] in EXACT_UNITS}
    return pinned


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with reference_counts.json instead")
    args = ap.parse_args()
    now = measure()
    if not args.check:
        with open(REFERENCE, "w") as f:
            json.dump(now, f, indent=1, sort_keys=True)
            f.write("\n")
        return 0
    with open(REFERENCE) as f:
        ref = json.load(f)
    diffs = [(run, name, ref.get(run, {}).get(name), value)
             for run, values in sorted(now.items())
             for name, value in sorted(values.items())
             if ref.get(run, {}).get(name) != value]
    for run, name, old, new in diffs:
        print("%s %s: %s -> %s" % (run, name, old, new))
    print("%d differences" % len(diffs))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
