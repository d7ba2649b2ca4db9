"""Scheduler tail latency: static LPT vs the predictive cost model
with affinity placement.

The workload the cost model exists for: a **mixed batch** — one huge
module (12 hot loops, one function each) sharing the service with 15
tiny one-loop modules.  Two modes:

- **static** (queue, ``cost_model=False``): a discovery task reports
  the roster and the loops become independently-stealable tasks, but
  LPT weights come from the *profiled* time fractions.  The simulated
  profile gives every huge loop an equal share while one "whale" loop
  costs 5x the others to *analyze* — the exact misranking the static
  estimate cannot see — so the whale dispatches last and stretches
  the tail by its full duration.
- **predictive** (queue + cost model): the durations table is
  pre-seeded with per-loop measured wall times (plus the
  ``__setup__`` sentinel), so the scheduler skips the discovery
  barrier via the predicted roster, front-loads the whale, and the
  engine's affinity placement routes tasks to workers already
  holding the module (charging the predicted setup otherwise).

The benchmark has two halves:

1. **Answer equality** (real analysis, inline executor): the mixed
   batch must produce identical answers, loop for loop, across static
   queue mode, a cold predictive run, and a warm predictive run (durations pre-seeded so the predicted-roster fast
   path actually exercises).  This is the CI gate.
2. **Tail latency** (cost-model simulation, 4 thread workers):
   injected runners sleep for a fixed per-module setup cost (paid
   once per simulated worker, mirroring the prepared-module cache)
   plus a per-loop analysis cost, so the measurement isolates
   *scheduling* — barriers, stealing, setup amortization, whale
   placement — and stays meaningful on single-core CI containers
   where real CPU-bound workers cannot overlap.  Reported per mode:
   **makespan** and **p50/p95/p99 per-request completion**.

``REPRO_SCHED_SMOKE=1`` (CI) runs everything but gates only on
equality plus *predictive p95 <= static p95*; the full run asserts
the headlines — predictive p95 at least **1.3x** better than static
LPT and a strictly higher prepared-hit rate under affinity
placement — and writes the
numbers (including prediction-error stats) to
``BENCH_scheduler.json`` at the repo root so the workflow can upload
the artifact.
"""

import json
import os
import tempfile
import threading
import time
from collections import OrderedDict

from common import emit, format_table

BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_scheduler.json")

WORKERS = 4
HUGE_LOOPS = 12          # 11 ordinary loops + 1 whale
TINY_COUNT = 15

#: Cost model (seconds) for the simulated half.  Setup is the
#: parse+verify+profile+build a worker pays once per resident module.
#: The whale loop analyzes 5x slower than its siblings while the
#: simulated *profile* weights all twelve equally — static LPT
#: tie-breaks it last, the predictive model front-loads it.
SIM_SETUP_S = 0.2
SIM_HUGE_LOOP_S = 0.5
SIM_WHALE_LOOP_S = 2.5
SIM_TINY_LOOP_S = 0.01
SIM_TINY_SETUP_S = 0.05

#: Profiled dynamic-instruction totals for the simulated modules.  A
#: tiny module's single loop owns 90% of its (minuscule) training run
#: while each huge loop is only 1/12 of its (enormous) one — raw time
#: fractions would LPT-order every tiny loop ahead of every huge
#: loop, exactly backwards.  Weighting fraction by the module's total
#: profiled instructions restores the true longest-first order.
SIM_HUGE_INSTRUCTIONS = 2_000_000
SIM_TINY_INSTRUCTIONS = 5_000

#: The whale's name sorts lexicographically *after* every sibling, so
#: the deterministic ``(weight, module, loop)`` tie-break provably
#: schedules it last under equal static weights — the worst case the
#: measured-duration model exists to fix.
_WHALE = "@workzz:%loop"

_TINY = """
global @cell : i32 = 0

func @main() -> i32 {{
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %loop]
  %v = load i32* @cell
  %v2 = add i32 %v, {step}
  store i32 %v2, i32* @cell
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 60
  condbr i1 %c, %loop, %exit
exit:
  %r = load i32* @cell
  ret i32 %r
}}
"""


def huge_source(loops: int = HUGE_LOOPS, iters: int = 52,
                cells: int = 2, reps: int = 2) -> str:
    """One hot loop per function; each body makes ``reps`` passes over
    ``cells`` globals so every loop has real memory traffic.  Sized
    for the equality half: big enough to be hot, small enough that
    four full inline runs stay fast."""
    parts, calls = [], []
    for k in range(loops):
        name = f"work{k}"
        for c in range(cells):
            parts.append(f"global @{name}c{c} : i32 = 0\n")
        body = []
        prev = "%i"
        for r in range(reps):
            for c in range(cells):
                body.append(f"  %v{r}_{c} = load i32* @{name}c{c}")
                body.append(f"  %s{r}_{c} = add i32 %v{r}_{c}, {prev}")
                body.append(f"  store i32 %s{r}_{c}, i32* @{name}c{c}")
                prev = f"%s{r}_{c}"
        body_txt = "\n".join(body)
        parts.append(f"""
func @{name}() -> i32 {{
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %loop]
{body_txt}
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, {iters}
  condbr i1 %c, %loop, %exit
exit:
  %r = load i32* @{name}c0
  ret i32 %r
}}
""")
        calls.append(f"  %r{k} = call @{name}()")
    parts.append("func @main() -> i32 {\nentry:\n" + "\n".join(calls)
                 + "\n  ret i32 0\n}\n")
    return "".join(parts)


def mixed_batch():
    from repro.service import AnalysisRequest
    requests = [AnalysisRequest("huge", huge_source(), system="scaf")]
    for k in range(TINY_COUNT):
        requests.append(AnalysisRequest(
            f"tiny{k}", _TINY.format(step=k + 1), system="scaf"))
    return requests


# -- half 1: answer equality (real analysis) ---------------------------------

def run_equality(requests, cache=None, cost_model=True):
    from repro.service import BatchScheduler, reset_prepared_cache

    reset_prepared_cache()  # the inline executor shares this process
    scheduler = BatchScheduler(workers=0, executor="inline",
                               cache=cache,
                               incremental=False, cost_model=cost_model)
    try:
        answers = scheduler.run_batch(requests)
    finally:
        scheduler.close()
    snap = scheduler.telemetry.snapshot()
    return {
        "identities": [[a.identity() for a in answer_list]
                       for answer_list in answers],
        "loops": sum(len(a) for a in answers),
        "fallbacks": snap.loops_fallback,
        "tasks": snap.loop_tasks_dispatched,
        "rosters_predicted": snap.roster_predictions,
    }


def copy_durations(src_cache, dst_cache, requests) -> None:
    """Carry only the measured-duration rows between caches, so a
    warm predictive run predicts rosters and costs without any cached
    *answers* short-circuiting the analysis under comparison."""
    for request in requests:
        rows = src_cache.lookup_durations(request.duration_lineage())
        if rows:
            dst_cache.record_durations(request.version_key(),
                                       request.duration_lineage(), rows)


# -- half 2: tail latency (cost-model simulation) ----------------------------

def _sim_plan(requests):
    """name -> (roster, fractions, per-loop cost map, setup cost,
    profiled instruction total)."""
    plan = {}
    for request in requests:
        if request.name == "huge":
            roster = tuple(f"@work{k:02d}:%loop"
                           for k in range(HUGE_LOOPS - 1)) + (_WHALE,)
            costs = {name: SIM_HUGE_LOOP_S for name in roster}
            costs[_WHALE] = SIM_WHALE_LOOP_S
            plan[request.name] = (
                roster, {n: 1.0 / HUGE_LOOPS for n in roster},
                costs, SIM_SETUP_S, SIM_HUGE_INSTRUCTIONS)
        else:
            roster = ("@main:%loop",)
            plan[request.name] = (roster, {"@main:%loop": 0.9},
                                  {"@main:%loop": SIM_TINY_LOOP_S},
                                  SIM_TINY_SETUP_S,
                                  SIM_TINY_INSTRUCTIONS)
    return plan


def seed_durations(cache, requests, plan) -> None:
    """Pre-seed the durations table with the plan's ground truth (per
    loop, plus the setup sentinel), as a prior daemon batch would
    have persisted it."""
    from repro.service import SETUP_LOOP_KEY

    for request in requests:
        _roster, _fractions, costs, setup_s, _instrs = plan[request.name]
        durations = dict(costs)
        durations[SETUP_LOOP_KEY] = setup_s
        cache.record_durations(request.version_key(),
                               request.duration_lineage(), durations)


class _SimWorkers:
    """Sleep-for-cost runners that mirror the worker contract.

    Each pool thread is one simulated worker; a ``threading.local``
    OrderedDict stands in for its prepared-module LRU, so setup cost
    is paid exactly when the real worker would pay it (first touch of
    a module per worker, or after eviction)."""

    def __init__(self, plan):
        self.plan = plan
        self._local = threading.local()

    def _prepared(self, key: str, setup_s: float, capacity: int):
        cache = getattr(self._local, "cache", None)
        if cache is None:
            cache = self._local.cache = OrderedDict()
        hit = key in cache
        if hit:
            cache.move_to_end(key)
        else:
            time.sleep(setup_s)
            cache[key] = True
            while len(cache) > max(1, capacity):
                cache.popitem(last=False)
        return hit

    def run_loop_task(self, task):
        from repro.service import LoopTaskResult, fallback_answer

        started = time.perf_counter()
        request = task.request
        roster, fractions, costs, setup_s, instrs = \
            self.plan[request.name]
        hit = self._prepared(request.version_key(), setup_s,
                             task.prepared_cache_size)
        after_setup = time.perf_counter()
        answer = None
        if task.loop is not None:
            time.sleep(costs.get(task.loop, 0.0))
            answer = fallback_answer(request.name, request.system,
                                     task.loop,
                                     fractions.get(task.loop, 0.0))
        now = time.perf_counter()
        return LoopTaskResult(
            version_key=request.version_key(), workload=request.name,
            system=request.system, entry=request.entry, loop=task.loop,
            answer=answer, hot_loops=roster, hot_fractions=dict(fractions),
            profile_digest="sim", busy_s=now - started,
            analysis_wall_s=now - after_setup,
            setup_s=0.0 if hit else setup_s, prepared_hit=hit,
            total_instructions=instrs)


def run_simulated(sim_mode: str, requests):
    """One simulated batch.  ``sim_mode``: ``static`` (cost model off)
    or ``predictive`` (cost model on, durations pre-seeded as a prior
    batch would leave them)."""
    from repro.service import BatchScheduler, ResultCache

    plan = _sim_plan(requests)
    sim = _SimWorkers(plan)
    with tempfile.TemporaryDirectory() as tmp:
        cache = None
        if sim_mode == "predictive":
            cache = ResultCache(tmp)
            seed_durations(cache, requests, plan)
        scheduler = BatchScheduler(
            workers=WORKERS, executor="thread", cache=cache,
            incremental=False,
            cost_model=(sim_mode == "predictive"),
            # 16 distinct modules ride the queue at once; size each
            # worker's prepared LRU so churning tiny modules cannot
            # evict the huge one between its loop tasks.
            prepared_cache_size=8,
            loop_runner=sim.run_loop_task)
        started = time.perf_counter()
        try:
            scheduler.run_batch(requests)
        finally:
            scheduler.close()
        makespan = time.perf_counter() - started
        snap = scheduler.telemetry.snapshot()
        cost_model = scheduler.cost_model
        if cache is not None:
            cache.close()
    return {
        "mode": sim_mode,
        "makespan_s": makespan,
        "completion": snap.request_completion,
        "prepared_hits": snap.prepared_hits,
        "prepared_misses": snap.prepared_misses,
        "affinity_hits": snap.prepared_affinity_hits,
        "affinity_misses": snap.prepared_affinity_misses,
        "affinity_steals": snap.prepared_affinity_steals,
        "rosters_predicted": snap.roster_predictions,
        "prediction_error": dict(snap.prediction_error),
        "cost_model": (cost_model.stats()
                       if cost_model is not None else {}),
        "setup_s": snap.setup_s,
        "busy_s": snap.busy_s,
        "loop_tasks": snap.loop_tasks_dispatched,
    }


def hit_rate(doc) -> float:
    total = doc["prepared_hits"] + doc["prepared_misses"]
    return doc["prepared_hits"] / total if total else 0.0


# -- reporting ---------------------------------------------------------------

def _row(doc):
    c = doc["completion"]
    return [doc["mode"], f"{doc['makespan_s']:.3f}",
            f"{c.get('p50_s', 0.0):.3f}", f"{c.get('p95_s', 0.0):.3f}",
            f"{c.get('p99_s', 0.0):.3f}",
            str(doc["loop_tasks"]),
            f"{doc['prepared_hits']}/{doc['prepared_misses']}"]


def _p95(doc) -> float:
    return doc["completion"].get("p95_s", 0.0)


def _report(static_doc, pred_doc, equal: bool) -> str:
    table = format_table(
        ["mode", "makespan(s)", "p50(s)", "p95(s)", "p99(s)", "tasks",
         "prepared h/m"],
        [_row(static_doc), _row(pred_doc)],
        title=f"Mixed batch (1x{HUGE_LOOPS}-loop huge incl. whale + "
              f"{TINY_COUNT} tiny), per-request completion "
              f"[{WORKERS} simulated workers, cost-model runners]")
    q95, p95 = _p95(static_doc), _p95(pred_doc)
    err = pred_doc["prediction_error"]
    lines = [
        table, "",
        f"p95 speedup (static/predictive): "
        f"{(q95 / p95) if p95 else float('inf'):.2f}x",
        f"prepared-hit rate: static {hit_rate(static_doc):.2f} -> "
        f"predictive {hit_rate(pred_doc):.2f} "
        f"(affinity {pred_doc['affinity_hits']} hits / "
        f"{pred_doc['affinity_steals']} steals)",
        f"prediction error: count {int(err.get('count', 0))} "
        f"p50 {err.get('p50_s', 0.0):.3f}s p95 {err.get('p95_s', 0.0):.3f}s",
        f"answers identical across modes (real analysis): "
        f"{'yes' if equal else 'NO'}",
    ]
    return "\n".join(lines) + "\n"


def _write_json(static_doc, pred_doc, equality, smoke: bool) -> None:
    def rounded(doc):
        out = dict(doc)
        out["completion"] = {k: round(v, 6)
                             for k, v in doc["completion"].items()}
        out["prediction_error"] = {
            k: round(v, 6) for k, v in doc["prediction_error"].items()}
        out["cost_model"] = {k: round(v, 9) if isinstance(v, float) else v
                             for k, v in doc["cost_model"].items()}
        for k in ("makespan_s", "setup_s", "busy_s"):
            out[k] = round(out[k], 6)
        return out

    q95, p95 = _p95(static_doc), _p95(pred_doc)
    payload = {
        "benchmark": "bench_scheduler_tail",
        "batch": {"huge": 1, "huge_loops": HUGE_LOOPS,
                  "tiny": TINY_COUNT},
        "workers": WORKERS,
        "cost_model_s": {"setup": SIM_SETUP_S,
                         "huge_loop": SIM_HUGE_LOOP_S,
                         "whale_loop": SIM_WHALE_LOOP_S,
                         "tiny_loop": SIM_TINY_LOOP_S,
                         "tiny_setup": SIM_TINY_SETUP_S},
        "profiled_instructions": {"huge": SIM_HUGE_INSTRUCTIONS,
                                  "tiny": SIM_TINY_INSTRUCTIONS},
        "smoke": smoke,
        "answers_identical": equality,
        "static": rounded(static_doc),
        "predictive": rounded(pred_doc),
        "p95_speedup_static_over_predictive":
            round(q95 / p95, 3) if p95 else None,
        "prepared_hit_rate": {"static": round(hit_rate(static_doc), 4),
                              "predictive": round(hit_rate(pred_doc), 4)},
    }
    with open(BENCH_JSON, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def test_scheduler_tail_latency(benchmark):
    from repro.service import ResultCache

    smoke = bool(os.environ.get("REPRO_SCHED_SMOKE"))
    requests = mixed_batch()

    def once():
        static_eq = run_equality(requests, cost_model=False)
        with tempfile.TemporaryDirectory() as tmp:
            # Cold predictive: empty durations table, model degrades
            # to the static prior; its run persists real measured
            # durations, which seed the warm run's predicted rosters.
            cold_cache = ResultCache(os.path.join(tmp, "cold"))
            cold_eq = run_equality(requests, cache=cold_cache)
            warm_cache = ResultCache(os.path.join(tmp, "warm"))
            copy_durations(cold_cache, warm_cache, requests)
            warm_eq = run_equality(requests, cache=warm_cache)
            cold_cache.close()
            warm_cache.close()
        return (static_eq, cold_eq, warm_eq,
                run_simulated("static", requests),
                run_simulated("predictive", requests))

    (static_eq, cold_eq, warm_eq,
     static_doc, pred_doc) = benchmark.pedantic(
        once, rounds=1, iterations=1)
    equal = (static_eq["identities"] == cold_eq["identities"]
             == warm_eq["identities"])
    emit("scheduler_tail_smoke.txt" if smoke else "scheduler_tail.txt",
         _report(static_doc, pred_doc, equal))
    _write_json(static_doc, pred_doc, equal, smoke)

    # The CI gate (both runs): same answers, loop for loop, through
    # real analysis in every mode — including the predicted-roster
    # fast path — with no degradations hiding behind the comparison.
    assert equal, "scheduler modes produced divergent answers"
    assert (static_eq["loops"] == cold_eq["loops"]
            == warm_eq["loops"] > 0)
    assert all(eq["fallbacks"] == 0
               for eq in (static_eq, cold_eq, warm_eq))
    assert warm_eq["rosters_predicted"] > 0, (
        "warm predictive run never took the predicted-roster path")
    assert static_doc["loop_tasks"] > 0 and pred_doc["loop_tasks"] > 0
    assert pred_doc["rosters_predicted"] > 0

    q95, p95 = _p95(static_doc), _p95(pred_doc)
    # Predictions must never *hurt*: even the smoke run holds the
    # predictive tail at or under the static one.
    assert p95 <= q95, (
        f"predictive p95 {p95:.3f}s worse than static {q95:.3f}s")
    if smoke:
        return

    # The headlines: the measured-duration model must beat static LPT
    # by 1.3x on the whale batch and strictly improve the prepared-hit
    # rate via affinity placement.
    assert p95 * 1.3 <= q95, (
        f"predictive p95 {p95:.3f}s vs static p95 {q95:.3f}s — "
        f"expected >= 1.3x improvement")
    assert hit_rate(pred_doc) > hit_rate(static_doc), (
        f"affinity placement did not improve the prepared-hit rate: "
        f"{hit_rate(pred_doc):.3f} <= {hit_rate(static_doc):.3f}")
