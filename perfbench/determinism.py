#!/usr/bin/env python3
"""Determinism check of the benchmark's per-layer counts.

Runs each pipeline workload traced, one campaign round, twice at one
worker and twice at two workers, and compares every per-layer metric
whose unit is `count`. At one worker the counts must be identical (exit
status 1 otherwise); at two workers the counts that differ are listed,
since only the exact ones should back a claim about counts.

    python3 perfbench/determinism.py [--seed N]

Run from the repository root.
"""

import json
import subprocess
import sys

with open("BENCHMARK.json") as f:
    COMMAND = json.load(f)["command"]


def counts(workload, workers, seed):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", "1", "--rounds", "1", "--workers", str(workers)]
    out = subprocess.run(COMMAND + args, capture_output=True, text=True, check=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def differing(a, b):
    return sorted(k for k in a if a[k] != b[k])


def main():
    seed = int(sys.argv[sys.argv.index("--seed") + 1]) if "--seed" in sys.argv else 1
    exact = True
    for workload in ("iv_full", "grid_dc"):
        one = [counts(workload, 1, seed) for _ in range(2)]
        diff = differing(*one)
        exact &= not diff
        print(f"{workload}, 1 worker: {'identical' if not diff else 'DIFFERENT: ' + ', '.join(diff)}")
        two = [counts(workload, 2, seed) for _ in range(2)]
        varying = sorted(set(differing(*two)) | set(differing(one[0], two[0])))
        for k in varying:
            values = [one[0][k], two[0][k], two[1][k]]
            print(f"  varies at 2 workers: {k}: 1 worker {values[0]:g}, 2 workers {values[1]:g} / {values[2]:g}")
        if not varying:
            print("  no count varies at 2 workers in these runs")
    return 0 if exact else 1


if __name__ == "__main__":
    sys.exit(main())
