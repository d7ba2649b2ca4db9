"""Run-to-run spread of the end-to-end metrics.

    python3 scafbench/spread.py --workload cold-scaf --seeds 1-10 [--sets 2]

Runs ``run.py`` untraced once per seed, for ``run_seconds`` of
``BENCHMARK.json`` (``--sets 2`` repeats the whole series), and prints,
per metric, the median, the quartiles, and the interquartile range as
a share of the median beside the metric's bound from
``BENCHMARK.json``.  With two sets it also prints how far the second
set's median moved from the first's, in the worse direction.  Every
run's record (with ``nproc`` and the load average at its start) stays
in ``scafbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from common import ROOT, WORKLOADS, run_bench


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    sets = []
    for k in range(args.sets):
        runs = []
        for seed in seeds(args.seeds):
            line = run_bench(args.workload, seed, seconds, 0)
            runs.append({name: m["value"]
                         for name, m in line["metrics"].items()})
            print(f"set {k + 1} seed {seed}: {json.dumps(runs[-1])}",
                  flush=True)
        sets.append(runs)

    print(f"\n{args.workload}: {len(sets[0])} runs per set, "
          f"{seconds} s each")
    print(f"{'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6} {'shift':>7}")
    worst = 0.0
    for name in sorted(sets[0][0]):
        spec_m = bounds[name]
        med, q1, q3, spread = summary([r[name] for r in sets[0]])
        shift = ""
        if len(sets) > 1:
            med2 = statistics.median([r[name] for r in sets[1]])
            sign = 1 if spec_m["better"] == "lower" else -1
            shift = f"{sign * (med2 - med) / med:+7.3f}"
        worst = max(worst, spread / spec_m["bound"])
        print(f"{name:<18} {med:11.4f} {q1:11.4f} {q3:11.4f} "
              f"{spread:7.3f} {spec_m['bound']:6.2f} {shift:>7}")
    print(f"largest spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
