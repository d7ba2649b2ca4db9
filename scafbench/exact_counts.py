"""Which per-layer counts repeat exactly across hash seeds.

    python3 scafbench/exact_counts.py [--workload W ...]

Runs each workload's traced unit twice with the same seed, under
``PYTHONHASHSEED=0`` and ``PYTHONHASHSEED=1``, and prints every
per-layer metric whose value is identical in both runs.  Only a count
listed as exact may back a count claim (a cut in premise queries per
query, say); timings and shares never repeat and are listed apart.
"""

from __future__ import annotations

import argparse
import os
import sys

from common import WORKLOADS, run_bench

#: The traced unit's seed: it fixes the pass order or the round's plan.
SEED = 1


def traced(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return run_bench(workload, SEED, 1, 1, env=env)["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    for workload in args.workload or WORKLOADS:
        a = traced(workload, "0")
        b = traced(workload, "1")
        exact, differ = [], []
        for name in sorted(a):
            if a[name]["value"] == 0 and b[name]["value"] == 0:
                continue  # a layer this workload does not reach
            same = a[name]["value"] == b[name]["value"]
            (exact if same else differ).append(
                (name, a[name]["value"], b[name]["value"],
                 a[name]["unit"]))
        print(f"\n{workload}: exact across PYTHONHASHSEED 0 and 1")
        for name, va, _vb, unit in exact:
            print(f"  = {name:<40} {va!r} {unit}")
        print(f"{workload}: differ")
        for name, va, vb, unit in differ:
            print(f"  ~ {name:<40} {va!r} / {vb!r} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
