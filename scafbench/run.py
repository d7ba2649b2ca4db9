"""Run one benchmark workload and print its metrics.

    python3 scafbench/run.py --workload cold-scaf --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` measures the workload's end-to-end metrics with no
instrumentation beyond per-query and per-loop timing; ``--trace 1``
runs the workload's traced unit and prints the per-layer ledger
instead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record of the run (tails with percentile, n and samples beyond,
host facts, per-pass or per-round detail, spans) is written to
``scafbench/out/<workload>-s<seed>-t<trace>.json``.

A run that cannot vouch for its numbers exits non-zero without a
result: a missing program, end-to-end metrics other than exactly
those of ``BENCHMARK.json``, a tail below its p50, two end-to-end
metrics with the same value, a tail without its percentile, n and
samples beyond, or a traced ledger that does not reconcile.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (OUT_DIR, ROOT, WORKLOADS, BenchError,  # noqa: E402
                    host_facts, import_repro)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_end_to_end(metrics: dict, tails: dict) -> None:
    """The self-consistency guards on an untraced run."""
    for name, (value, _unit) in metrics.items():
        if not (isinstance(value, float) and math.isfinite(value)
                and value > 0):
            raise BenchError(f"{name} = {value!r} is not a positive number")
    seen = {}
    for name, (value, _unit) in metrics.items():
        if value in seen:
            raise BenchError(f"{name} copies {seen[value]} ({value!r})")
        seen[value] = name
    for name, info in tails.items():
        missing = {"value", "percentile", "beyond", "n"} - set(info)
        if missing:
            raise BenchError(f"{name} lacks {sorted(missing)}")
        if info["beyond"] < 10 or info["percentile"] <= 50:
            raise BenchError(f"{name} is not a tail: {info}")
        p50 = metrics[name.replace("_tail_", "_p50_")][0]
        if info["value"] < p50:
            raise BenchError(f"{name} {info['value']!r} is below its "
                             f"p50 {p50!r}")


def run(args) -> tuple:
    spec = load_spec()
    import_repro()
    if args.workload == "daemon-mixed":
        import daemonmix
        result = (daemonmix.ledger_run(args.seed) if args.trace else
                  daemonmix.measure(args.seed, args.seconds))
    else:
        import inproc
        result = (inproc.ledger_run(args.workload, args.seed) if args.trace
                  else inproc.measure(args.workload, args.seed,
                                      args.seconds))

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = set(result["metrics"]) - set(units)
        if unknown:
            raise BenchError(f"per-layer metrics missing from "
                             f"BENCHMARK.json: {sorted(unknown)}")
        # A layer this workload does not reach reads zero.
        metrics = {name: {"value": result["metrics"].get(name, 0),
                          "unit": unit} for name, unit in units.items()}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(result["metrics"]) != set(units):
            raise BenchError(f"end-to-end metrics {sorted(result['metrics'])}"
                             f" are not BENCHMARK.json's {sorted(units)}")
        for name, (_value, unit) in result["metrics"].items():
            if units.get(name) != unit:
                raise BenchError(f"{name} [{unit}] does not match "
                                 f"BENCHMARK.json")
        check_end_to_end(result["metrics"], result["tails"])
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["metrics"].items()}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics}, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run unwinds like a failed one, so every daemon it
    # started is stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    os.chdir(ROOT)
    facts = host_facts()
    started = time.time()
    try:
        line, result = run(args)
    except BenchError as exc:
        print(f"scafbench: {exc}", file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-"
                                 f"t{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"args": vars(args), "host": facts,
                   "started_epoch_s": started,
                   "elapsed_s": time.time() - started,
                   "result": line, "tails": result.get("tails", {}),
                   "record": result["record"]}, f, indent=1,
                  sort_keys=True, default=str)
    for problem in result["record"].get("problems", []):
        print(f"scafbench: oracle: {problem}", file=sys.stderr)
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
