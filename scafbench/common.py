"""Shared pieces of the benchmark: paths, pools, percentiles, oracle.

Everything here is bookkeeping; nothing in this module runs the
program in-process.  ``run_bench`` runs ``run.py`` in a child process
for the tools beside it.  ``import_repro`` puts the checkout's ``src/`` on the path
and fails loudly when it is missing, so a directory holding only the
benchmark refuses to produce a result.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


class BenchError(RuntimeError):
    """A run that cannot produce a trustworthy result."""


def import_repro():
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro
    return repro


# -- workload pools ----------------------------------------------------------

WORKLOADS = ("cold-scaf", "cold-light", "daemon-mixed")

SYSTEMS = ("caf", "confluence", "scaf", "memory-speculation")

#: SCAF's premise traffic dominates each of these modules' cold pass
#: (SCAF query seconds several times the profiling seconds).
COLD_SCAF_POOL = ("429.mcf", "470.lbm", "519.lbm", "525.x264")

#: The modules §5.1 calls confluence-saturated: near-zero premise
#: traffic, so the training run is most of a cold pass.
COLD_LIGHT_POOL = ("056.ear", "129.compress", "164.gzip", "179.art")

#: Two cheap modules and one dearer one: the misses' and edits' p50
#: falls inside 164.gzip's cluster and their tail inside 429.mcf's,
#: never in the gap between two clusters, and a round stays short.
DAEMON_POOL = ("129.compress", "164.gzip", "429.mcf")


# -- percentiles -------------------------------------------------------------

def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the value at rank ceil(pct% of n))."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail(values: Sequence[float], planned_n: int) -> Dict[str, float]:
    """The highest percentile with at least 10 samples beyond it.

    The percentile is fixed by ``planned_n``, the sample count the run
    plans for whatever the program's speed, so that it stays the same
    across runs and commits; ``values`` may hold more samples than
    that, never fewer.
    """
    if planned_n <= 20 or len(values) < planned_n:
        raise BenchError(f"{len(values)} samples ({planned_n} planned) "
                         f"are too few for a tail above p50")
    pct = 100.0 * (planned_n - 10) / planned_n
    rank = max(1, math.ceil(pct / 100.0 * len(values) - 1e-9))
    return {"value": percentile(values, pct), "percentile": pct,
            "beyond": len(values) - rank, "n": len(values)}


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return statistics.median(values)


def median_of_medians(samples: Dict[object, Sequence[float]]) -> float:
    """The median over operations of each operation's median time.

    The same operations repeat in every pass, and their times differ by
    orders of magnitude.  A pooled median would sit on whichever two
    operations meet at the middle rank in that run, often across a gap
    between two clusters; taking each operation's median first keeps it
    on the same operations every run.
    """
    return median([median(values) for values in samples.values()])


# -- answer oracle -----------------------------------------------------------

#: Figure 8 of EXPERIMENTS.md (time-weighted %NoDep per module and
#: system), copied by hand: the oracle every answer is held to.
FIGURE8: Dict[str, Tuple[float, float, float, float]] = {
    # module: (caf, confluence, scaf, memory-speculation)
    "052.alvinn": (82.42, 88.79, 92.09, 98.24),
    "056.ear": (93.19, 93.19, 93.19, 95.27),
    "129.compress": (89.86, 94.71, 94.71, 95.59),
    "164.gzip": (90.71, 93.57, 93.57, 95.00),
    "175.vpr": (66.08, 77.09, 88.23, 98.48),
    "179.art": (80.81, 86.48, 86.48, 97.03),
    "181.mcf": (70.15, 81.59, 89.55, 98.01),
    "183.equake": (56.05, 79.51, 91.36, 98.02),
    "429.mcf": (77.97, 87.71, 91.53, 98.73),
    "456.hmmer": (66.51, 73.07, 81.73, 97.66),
    "462.libquantum": (63.18, 76.62, 83.08, 97.76),
    "470.lbm": (62.22, 78.52, 82.96, 97.78),
    "482.sphinx3": (79.72, 84.93, 91.27, 97.75),
    "519.lbm": (75.92, 86.12, 91.84, 96.33),
    "525.x264": (74.29, 84.08, 87.76, 98.37),
    "544.nab": (80.52, 84.02, 93.00, 98.48),
}


def expected_no_dep(module: str, system: str) -> float:
    return FIGURE8[module][SYSTEMS.index(system)]


def oracle_problems(module: str, system: str, no_dep: float,
                    removed: Sequence[tuple],
                    observed: set) -> List[str]:
    """Why one job's answer is wrong (empty when it is right).

    ``removed`` and ``observed`` hold ``(loop, src, dst,
    cross_iteration)`` keys of the same kind: removing a dependence the
    profiler observed in that loop is unsound.
    """
    problems = []
    expected = expected_no_dep(module, system)
    if abs(no_dep - expected) > 0.005 + 1e-9:
        problems.append(f"{module}/{system}: %NoDep {no_dep:.4f} != "
                        f"Figure 8's {expected:.2f}")
    unsound = [key for key in removed if key in observed]
    if unsound:
        problems.append(f"{module}/{system}: {len(unsound)} removed "
                        f"dependences were observed, e.g. {unsound[0]}")
    return problems


# -- running the benchmark -----------------------------------------------------

def run_bench(workload: str, seed: int, seconds: float, trace: int,
              env: Optional[Dict[str, str]] = None) -> dict:
    """One ``run.py`` run in a child process: its result line.  Exits
    with a message if the run fails or reports a failed operation."""
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n"
                         f"{out.stderr}")
    line = json.loads(out.stdout.strip().splitlines()[-1])
    if not line["correct"] or line["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run {line}")
    return line


# -- host facts ----------------------------------------------------------------

def host_facts() -> Dict[str, object]:
    """Recorded with every run: the measurement's context."""
    try:
        load1, load5, load15 = os.getloadavg()
    except OSError:
        load1 = load5 = load15 = -1.0
    return {"nproc": os.cpu_count(), "loadavg_at_start":
            [load1, load5, load15], "python": sys.version.split()[0]}
