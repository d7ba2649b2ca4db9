"""The in-process workloads: ``cold-scaf`` and ``cold-light``.

One job runs the whole pipeline cold on one module, in this process
and thread: ``parse_module`` -> ``verify_module`` -> ``AnalysisContext``
-> ``run_profilers`` -> ``hot_loops`` -> build each of the job's
systems -> ``PDGClient.analyze_loop`` on every hot loop.  A pass runs
one job per module of the pool, in an order the seed draws afresh for
every pass.  ``AnalysisContext`` computes lazily, so each job builds
its own module and context: nothing carries over between jobs.

The oracle checks each job after its timed interval ends.
"""

from __future__ import annotations

import contextlib
import gc
import random
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from common import (BENCH_DIR, COLD_LIGHT_POOL, COLD_SCAF_POOL, SRC,
                    SYSTEMS, BenchError, median, median_of_medians,
                    oracle_problems, tail)
from ledger import Ledger, PremiseCounter, instrumented, wrap_modules
from speed import REF_S, Probes

#: Each workload: its module pool, the systems one job runs, and the
#: top-level queries one pass asks.  The query count fixes the tail's
#: percentile across runs and commits; a pass that asks another number
#: fails the run, and the plan here has to be revised with the tail's
#: percentile in NOTES.md.
PLANS = {
    "cold-scaf": (COLD_SCAF_POOL, ("scaf",), 861),
    "cold-light": (COLD_LIGHT_POOL, SYSTEMS, 3960),
}


_READY = ("import sys; sys.path.insert(0, sys.argv[1]); import repro; "
          "sys.stdout.write('ready\\n'); sys.stdout.flush(); "
          "sys.path.insert(0, sys.argv[2]); import speed; "
          "sys.stdout.write(repr(speed.probe()) + '\\n')")


def setup_seconds() -> Tuple[float, float]:
    """Seconds from starting a fresh interpreter until it has imported
    the program and says so (one sample), and the host factor of a
    probe the same interpreter runs right after.  A set-up runs in its
    own process, which the host may schedule unlike this one, so this
    process's probes do not speak for it."""
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", _READY, SRC, BENCH_DIR],
                          stdout=subprocess.PIPE) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        reading = child.stdout.readline()
        child.wait(timeout=60)
    if line.strip() != b"ready" or child.returncode != 0:
        raise BenchError("a fresh interpreter failed to import repro")
    return elapsed, float(reading) / REF_S


def _builders():
    from repro import (build_caf, build_confluence,
                       build_memory_speculation, build_scaf)
    return {
        "caf": lambda m, p, c: build_caf(m, c, p),
        "confluence": lambda m, p, c: build_confluence(m, p, c),
        "scaf": lambda m, p, c: build_scaf(m, p, c),
        "memory-speculation":
            lambda m, p, c: build_memory_speculation(m, p, c),
    }


class Job:
    """What one cold job leaves behind for the oracle and the ledger."""

    def __init__(self, module: str):
        self.module = module
        # (raw seconds, host factor): each segment of the job (probes
        # left out), each top-level query, each (system, loop)'s
        # analysis.
        self.segments: List[Tuple[float, float]] = []
        self.query_s: List[Tuple[float, float]] = []
        self.loop_s: Dict[tuple, Tuple[float, float]] = {}
        self.instructions = 0
        self.loops = 0
        self.problems: List[str] = []
        self.stats = []  # OrchestratorStats of each system

    @property
    def wall_s(self) -> float:
        return sum(raw for raw, _factor in self.segments)

    def segment(self, raw_s: float, factor: float) -> float:
        self.segments.append((raw_s, factor))
        return factor


def run_job(module_name: str, systems: Sequence[str], builders,
            ledger: Optional[Ledger] = None,
            probes: Optional[Probes] = None) -> Job:
    """One cold job.  ``probes`` (the untraced run) times every
    top-level query and probes the host between the job's segments:
    the front of the pipeline, then each system's build and loops.  A
    segment's timings are divided by its own host factor, so a slow
    spell is corrected where it fell.  ``ledger`` records layer spans
    (the traced run)."""
    from repro.analysis import AnalysisContext
    from repro.clients import PDGClient, hot_loops
    from repro.ir import parse_module, verify_module
    from repro.profiling import run_profilers
    from repro.workloads import get_workload

    workload = get_workload(module_name)
    source, entry = workload.source, workload.entry
    job = Job(module_name)
    span = ledger.span if ledger is not None else _untraced
    mark = probes.mark if probes is not None else (lambda: 1.0)
    clock = time.perf_counter
    results = []

    started = clock()
    with span("bench", module_name):
        with span("ir"):
            module = parse_module(source, name=module_name)
            verify_module(module)
        with span("analysis"):
            context = AnalysisContext(module)
        with span("profiling"):
            profiles = run_profilers(module, context, entry=entry)
        with span("clients"):
            hot = hot_loops(profiles)
        job.segment(clock() - started, mark())
        for system_name in systems:
            started = clock()
            latencies: List[float] = []
            loop_s = {}
            with span("core", system_name):
                system = builders[system_name](module, profiles, context)
            if ledger is not None:
                wrap_modules(ledger, system)
            elif probes is not None:
                system.query = _timed(system.query, latencies)
            with span("clients", "analyze_loop"):
                client = PDGClient(system)
                pdgs = []
                for h in hot:
                    loop_started = clock()
                    pdgs.append(client.analyze_loop(h.loop))
                    loop_s[(system_name, h.loop.name)] = (
                        clock() - loop_started)
            factor = job.segment(clock() - started, mark())
            job.query_s += [(q, factor) for q in latencies]
            job.loop_s.update({k: (v, factor) for k, v in loop_s.items()})
            results.append((system_name, system, pdgs))

    job.instructions = profiles.total_instructions
    for system_name, system, pdgs in results:
        job.loops += len(pdgs)
        job.stats.append(system.stats)
        job.problems += _check(module_name, system_name, hot, pdgs,
                               profiles)
    return job


def _check(module_name, system_name, hot, pdgs, profiles) -> List[str]:
    from repro.clients import weighted_no_dep
    removed, observed = [], set()
    for h, pdg in zip(hot, pdgs):
        loop = h.loop.name
        observed |= {(loop, id(s), id(d), c) for s, d, c in
                     profiles.memdep.observed_pairs(h.loop)}
        removed += [(loop, id(r.src), id(r.dst), r.cross_iteration)
                    for r in pdg.records if r.removed]
    return oracle_problems(module_name, system_name,
                           weighted_no_dep(hot, pdgs), removed, observed)


def _untraced(*_span_args):
    return contextlib.nullcontext()


def _timed(query, latencies: List[float]):
    clock = time.perf_counter

    def timed(q):
        started = clock()
        response = query(q)
        latencies.append(clock() - started)
        return response
    return timed


def pass_orders(pool: Sequence[str], seed: int):
    """An endless stream of seeded pass orders over the pool."""
    rng = random.Random(seed)
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield order


def run_pass(order, systems, builders, ledger=None, premises=None,
             probes=None, after_job=None):
    """One job per module of ``order``; ``probes`` as for ``run_job``.
    ``after_job`` is called after each job, outside its timed
    interval."""
    jobs = []
    for module_name in order:
        gc.collect()  # the previous job's garbage, outside the timing
        job = run_job(module_name, systems, builders, ledger, probes)
        if premises is not None:
            premises.end_job()
        if after_job is not None:
            after_job()
        jobs.append(job)
    return jobs


# -- the untraced run: end-to-end metrics --------------------------------------

def measure(workload: str, seed: int, seconds: float) -> dict:
    """Job times, query latencies and set-up samples are divided by
    their interval's host factor (see ``speed.py``); the record keeps
    the raw values and the factors."""
    pool, systems, planned = PLANS[workload]
    builders = _builders()
    setup_seconds()  # the first start also writes bytecode caches
    setup: List[float] = []
    raw_setup: List[float] = []
    probes = Probes()

    passes: List[List[Job]] = []
    problems: List[str] = []
    attempted = failed = 0
    orders = pass_orders(pool, seed)
    deadline = time.perf_counter() + seconds

    def sample_setup():
        # One set-up sample after every job, so that the samples spread
        # over the run; then a probe here, the reading before the next
        # job.
        raw_s, factor = setup_seconds()
        raw_setup.append(raw_s)
        setup.append(raw_s / factor)
        probes.mark()

    # Whole passes only, so every pass does the same work and asks the
    # same number of queries; at least three, so medians over passes
    # have a middle.
    while len(passes) < 3 or time.perf_counter() < deadline:
        jobs = run_pass(next(orders), systems, builders, probes=probes,
                        after_job=sample_setup)
        asked = sum(len(job.query_s) for job in jobs)
        if asked != planned:
            raise BenchError(f"a {workload} pass asked {asked} queries, "
                             f"not the {planned} planned")
        passes.append(jobs)
        for job in jobs:
            attempted += 1
            failed += bool(job.problems)
            problems += job.problems

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, tails = figures(passes, planned, scaled=True)
    metrics["setup_s"] = (median(setup), "s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    raw_metrics, raw_tails = figures(passes, planned, scaled=False)
    raw_metrics["setup_s"] = (median(raw_setup), "s")
    record = {"setup_samples_s": raw_setup, "raw_metrics": raw_metrics,
              "raw_tails": raw_tails, "probe_readings_s": probes.readings,
              "passes": [{"order": [j.module for j in jobs],
                          "segments": [j.segments for j in jobs]}
                         for jobs in passes],
              "problems": problems[:20]}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "tails": tails, "record": record}


def figures(passes: List[List[Job]], planned: int, scaled: bool):
    """The job, loop and query metrics of a run, from timings divided
    by their host factors or from the raw timings.

    Each query (by module and position), loop analysis and job recurs
    once per pass; its median over the passes is taken first, so that
    a slow spell in one pass moves no metric."""
    def ms(raw_s, factor):
        return 1e3 * raw_s / (factor if scaled else 1.0)

    query_ms: Dict[tuple, List[float]] = {}
    loop_ms: Dict[tuple, List[float]] = {}
    job_ms: Dict[str, List[float]] = {}
    for jobs in passes:
        for job in jobs:
            for i, timing in enumerate(job.query_s):
                query_ms.setdefault((job.module, i), []).append(ms(*timing))
            for key, timing in job.loop_s.items():
                loop_ms.setdefault((job.module,) + key, []).append(
                    ms(*timing))
            job_ms.setdefault(job.module, []).append(
                sum(ms(*timing) for timing in job.segments))
    if any(len(v) != len(passes) for v in query_ms.values()):
        raise BenchError("a module asked a different number of queries "
                         "in different passes")
    # Figure 10 of a median pass.
    typical = [median(v) for v in query_ms.values()]
    query_tail = dict(tail(typical, planned), passes=len(passes))
    metrics = {
        # A pass of median jobs.
        "jobs_per_s": (1e3 * len(job_ms) / sum(median(v)
                                               for v in job_ms.values()),
                       "1/s"),
        "small_p50_ms": (median(typical), "ms"),
        "small_tail_ms": (query_tail["value"], "ms"),
        "medium_p50_ms": (median_of_medians(loop_ms), "ms"),
        "large_p50_ms": (median_of_medians(job_ms), "ms"),
    }
    return metrics, {"small_tail_ms": query_tail}


# -- the traced run: the per-layer ledger ----------------------------------------

def ledger_run(workload: str, seed: int) -> dict:
    """One untraced pass, then the same pass traced: the ledger, and
    the tracing overhead as the ratio of the two walls."""
    pool, systems, _planned = PLANS[workload]
    builders = _builders()
    order = next(pass_orders(pool, seed))
    plain = run_pass(order, systems, builders)
    plain_wall = sum(j.wall_s for j in plain)

    ledger = Ledger()
    premises = PremiseCounter()
    gc.collect()
    with instrumented(ledger, premises):
        ledger.enter("bench", "pass")
        jobs = run_pass(order, systems, builders, ledger=ledger,
                        premises=premises)
        wall = ledger.exit()
    ledger.reconcile(wall)
    problems = [p for j in jobs + plain for p in j.problems]
    metrics = layer_metrics(ledger, premises, jobs, wall, plain_wall)
    return {"attempted": len(jobs) + len(plain),
            "failed": sum(bool(j.problems) for j in jobs + plain),
            "metrics": metrics,
            "record": {"order": order, "traced_wall_s": wall,
                       "untraced_wall_s": plain_wall,
                       "self_s": dict(ledger.self_s),
                       "spans": ledger.spans, "problems": problems[:20]}}


def layer_metrics(ledger, premises, jobs, wall, plain_wall) -> Dict:
    from repro.core.orchestrator import OrchestratorStats
    total = OrchestratorStats()
    for job in jobs:
        for stats in job.stats:
            for name in ("queries", "premise_queries", "cycles_cut",
                         "desired_result_bails", "cache_hits",
                         "cache_lookups"):
                setattr(total, name,
                        getattr(total, name) + getattr(stats, name))
            for module, n in stats.module_evals.items():
                total.module_evals[module] = \
                    total.module_evals.get(module, 0) + n
    self_s = ledger.self_s
    instructions = sum(j.instructions for j in jobs)
    module_self = {k[len("modules."):]: v for k, v in self_s.items()
                   if k.startswith("modules.")}
    metrics = {
        "ir.self_s": self_s["ir"],
        "analysis.self_s": self_s["analysis"],
        "profiling.self_s": self_s["profiling"],
        "profiling.share": self_s["profiling"] / wall,
        "interp.instructions": instructions,
        "interp.instructions_per_s": instructions / self_s["profiling"],
        "core.self_s": self_s["core"],
        "core.share": self_s["core"] / wall,
        "core.queries": total.queries,
        "core.premise_queries": total.premise_queries,
        "core.distinct_premises": premises.distinct,
        "core.cycles_cut": total.cycles_cut,
        "core.module_evals": total.total_module_evals,
        "core.desired_result_bails": total.desired_result_bails,
        "core.max_premise_depth": premises.max_depth,
        "core.premise_per_query": total.premise_queries / total.queries,
        "core.memo_hit_rate": total.cache_hit_rate,
        "modules.self_s": sum(module_self.values()),
        "clients.loops": sum(j.loops for j in jobs),
        "clients.self_s": self_s["clients"],
        "bench.unattributed_s": self_s["bench"],
        "bench.tracing_overhead":
            sum(j.wall_s for j in jobs) / plain_wall - 1.0,
    }
    for module, n in total.module_evals.items():
        metrics[f"modules.{module}.evals"] = n
    for module, s in module_self.items():
        metrics[f"modules.{module}.self_s"] = s
    return metrics
