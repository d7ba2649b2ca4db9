"""The ``daemon-mixed`` workload: a closed loop against ``repro serve``.

Each round starts a fresh daemon (process executor, one worker, an
empty cache directory) and drives it from two blocking client
connections in this process, each sending its next request only when
the previous one is answered:

1. one client sends every (module, system) pair of the pool once as a
   **miss**, in a fixed module-major order: the worker's
   prepared-module LRU makes set-up cost depend on submission order;
2. both clients then send exact repeats of the pairs, **hits** on the
   cache, in a seeded order;
3. one client sends every pair once more, in the same fixed order,
   with a never-called helper function appended: an **edit** the
   incremental path serves from the cache.

A miss or an edit has nothing else in flight, so its round trip is its
own service time, not a wait behind another request.  The seed also
picks the helper's constant.  A request's RTT runs from ``submit`` to
the ``done`` frame and counts for its planned class only if every
answer's status agrees (``computed`` for a miss, ``cached``
otherwise).

The oracle (Figure 8 %NoDep, soundness against the profiler's observed
dependences, hit and edit answers identical to the miss answer) runs
after each phase, outside every timed interval.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

from common import (DAEMON_POOL, OUT_DIR, ROOT, SRC, SYSTEMS, BenchError,
                    median, median_of_medians, oracle_problems, tail)
from ledger import Ledger
from speed import Probes

#: Rounds per run at least: three rounds give each (module, system)
#: pair three misses and three edits behind its median.
MIN_ROUNDS = 3
#: Hits per round, split evenly between the two clients, sent in
#: stretches with a probe between them.
HITS_PER_ROUND = 96
HIT_STRETCH = 24
#: Daemons started after each measured round only to time their
#: set-up: with the round's own, three ``setup_s`` samples per round,
#: spread over the run.
EXTRA_SETUPS = 2

#: Appended for an edit.  Never called, and it touches only its own
#: alloca, so no hot loop's dependence footprint changes.
HELPER = """
func @__bench_helper(i32 %seed) -> i32 {
entry:
  %slot = alloca i32
  store i32 %seed, i32* %slot
  %cur = load i32* %slot
  %next = add i32 %cur, STEP
  store i32 %next, i32* %slot
  ret i32 %next
}
"""

#: Answered once per round before the load starts, so the first miss
#: does not carry the worker's start-up.
WARMUP = """
global @cell : i32 = 0

func @main() -> i32 {
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %loop]
  %v = load i32* @cell
  %v2 = add i32 %v, %i
  store i32 %v2, i32* @cell
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 200
  condbr i1 %c, %loop, %exit
exit:
  %r = load i32* @cell
  ret i32 %r
}
"""


def _plan(rng: random.Random):
    """The round's misses and edits, in a fixed order, and the random
    source that draws its hits."""
    from repro.service import AnalysisRequest
    from repro.workloads import get_workload

    step = rng.randrange(1, 1 << 20)
    misses, edits = [], []
    for name in DAEMON_POOL:
        wl = get_workload(name)
        edited = wl.source + HELPER.replace("STEP", str(step))
        for system in SYSTEMS:
            pair = (name, system)
            misses.append(("miss", pair, AnalysisRequest(
                name=name, source=wl.source, entry=wl.entry,
                system=system)))
            edits.append(("edit", pair, AnalysisRequest(
                name=name, source=edited, entry=wl.entry, system=system)))
    return misses, edits, random.Random(rng.random())


def observed_labels() -> set:
    """The profiler's observed dependences of every hot loop of the
    pool, as answer labels: the soundness half of the oracle."""
    from repro.analysis import AnalysisContext
    from repro.clients import hot_loops
    from repro.ir import parse_module, verify_module
    from repro.profiling import run_profilers
    from repro.service.answers import inst_label
    from repro.workloads import get_workload

    observed = set()
    for name in DAEMON_POOL:
        wl = get_workload(name)
        module = parse_module(wl.source, name=name)
        verify_module(module)
        profiles = run_profilers(module, AnalysisContext(module),
                                 entry=wl.entry)
        for h in hot_loops(profiles):
            observed |= {
                (name, h.loop.name, inst_label(s), inst_label(d), c)
                for s, d, c in profiles.memdep.observed_pairs(h.loop)}
    return observed


class Daemon:
    """One ``repro serve`` process with its own socket and cache."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir)
        # Relative to the checkout root, which is every process's cwd:
        # absolute socket paths can outgrow the 108-byte limit.
        self.addr = "unix:" + os.path.relpath(
            os.path.join(workdir, "d.sock"), ROOT)
        self.log = open(os.path.join(workdir, "daemon.log"), "wb")
        env = dict(os.environ, PYTHONPATH=SRC)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--addr", self.addr,
             "--workers", "1", "--executor", "process",
             "--cache-dir", os.path.relpath(
                 os.path.join(workdir, "cache"), ROOT)],
            cwd=ROOT, env=env, stdout=self.log, stderr=subprocess.STDOUT)

    def wait_ready(self, timeout_s: float = 60.0) -> float:
        """Seconds from spawn until the daemon answers a ping and its
        worker has answered a warm-up request: ready to serve."""
        from repro.daemon import DaemonClient, DaemonError
        from repro.service import AnalysisRequest
        deadline = time.perf_counter() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode}")
            if time.perf_counter() > deadline:
                raise BenchError("daemon did not answer a ping in time")
            try:
                with DaemonClient(self.addr, timeout_s=5.0) as client:
                    if client.ping().get("ok"):
                        break
            except (OSError, ConnectionError, DaemonError):
                time.sleep(0.005)
        with DaemonClient(self.addr, tag="warmup") as client:
            client.run_batch([AnalysisRequest(
                name="warmup", source=WARMUP, system="caf")])
        return time.perf_counter() - self.started

    def peak_rss_mb(self) -> float:
        """VmHWM of the daemon plus its worker processes."""
        pids = [self.proc.pid] + _children(self.proc.pid)
        return sum(_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        from repro.daemon import DaemonClient
        try:
            if self.proc.poll() is None:
                with DaemonClient(self.addr, timeout_s=10.0) as client:
                    client.shutdown()
                self.proc.wait(timeout=60)
        except (OSError, ConnectionError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.log.close()


def _children(pid: int) -> List[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                cmdline = f.read()
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid and b"resource_tracker" not in cmdline:
            kids.append(int(entry))
    return kids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _send(client, item) -> tuple:
    """One blocking request: (class, pair, rtt_s, answers or None)."""
    from repro.service import loop_answer_from_dict
    klass, pair, request = item
    started = time.perf_counter()
    done = client.stream(client.submit([request]))
    rtt = time.perf_counter() - started
    answers = None
    if done.get("status") == "done":
        answers = [loop_answer_from_dict(d)
                   for d in (done.get("answers") or [[]])[0]]
    return klass, pair, rtt, answers


def _serial(items, client, probes: Probes) -> Tuple[list, float]:
    """``items`` one after another from ``client``, with a probe after
    each while the daemon is idle: each result carries its own host
    factor.  Returns the results and the time spent in requests,
    divided by the factors."""
    results, busy = [], 0.0
    for item in items:
        result = _send(client, item)
        factor = probes.mark()
        results.append(result + (factor,))
        busy += result[2] / factor
    return results, busy


def _hits(clients, misses, rng: random.Random, probes: Probes
          ) -> Tuple[list, float]:
    """``HITS_PER_ROUND`` exact repeats of the misses, drawn by ``rng``,
    from all clients at once, each sending its next when its last is
    answered, in stretches of ``HIT_STRETCH`` with a probe after each:
    each result carries its stretch's host factor.  Returns the results
    and the time spent in stretches, divided by the factors."""
    results, busy = [], 0.0
    share = HIT_STRETCH // len(clients)
    for _ in range(HITS_PER_ROUND // HIT_STRETCH):
        plans = [[("hit",) + rng.choice(misses)[1:] for _ in range(share)]
                 for _ in clients]
        stretch, errors = [], []

        def read(client, plan):
            try:
                for item in plan:
                    stretch.append(_send(client, item))
            except Exception as exc:  # the run fails: no result printed
                errors.append(f"{client.tag}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=read, args=pair)
                   for pair in zip(clients, plans)]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - started
        if errors:
            raise BenchError("; ".join(errors))
        factor = probes.mark()
        results += [r + (factor,) for r in stretch]
        busy += wall / factor
    return results, busy


def _judge(results, observed, reference, problems) -> list:
    """Oracle and class check; returns the results that count."""
    from repro.clients import weighted_no_dep_answers

    counted = []
    for klass, pair, rtt, answers, factor in results:
        wanted = "computed" if klass == "miss" else "cached"
        issues = []
        if not answers:
            issues.append(f"{klass} {pair}: no answers")
        elif any(a.status != wanted for a in answers):
            issues.append(f"{klass} {pair}: statuses "
                          f"{sorted({a.status for a in answers})}")
        else:
            module, system = pair
            removed = [(module, a.loop, q.src, q.dst, q.cross_iteration)
                       for a in answers for q in a.answers if q.removed]
            issues += oracle_problems(module, system,
                                      weighted_no_dep_answers(answers),
                                      removed, observed)
            identity = [a.identity() for a in answers]
            if klass == "miss":
                reference[pair] = identity
            elif reference.get(pair) != identity:
                issues.append(f"{klass} {pair}: answer differs from "
                              f"the miss answer")
        problems += issues
        if not issues:
            counted.append((klass, rtt / factor, rtt, pair))
    return counted


def _telemetry_delta(before: dict, after: dict) -> Dict[str, float]:
    keys = ("loops_computed", "loops_from_cache", "loops_incremental",
            "cache_hits", "cache_misses", "prepared_hits",
            "prepared_misses", "busy_s", "orchestrator_queries",
            "module_evals")
    delta = {k: after["telemetry"][k] - before["telemetry"][k]
             for k in keys}
    delta["jobs_shed"] = (after["daemon"]["jobs_shed"]
                          - before["daemon"]["jobs_shed"])
    delta["queue_wait_p50_s"] = after["telemetry"]["queue_wait"].get(
        "p50_s", 0.0)
    return delta


def _server_latency(stats: dict, tags) -> Tuple[float, int]:
    total = count = 0
    for tag in tags:
        summary = stats["clients"].get(tag, {}).get("batch_latency", {})
        n = summary.get("count", 0)
        total += summary.get("mean_s", 0.0) * n
        count += n
    return total, count


def run_round(workdir: str, rng: random.Random, observed,
              probes: Probes, ledger: Ledger) -> dict:
    """One round against a fresh daemon."""
    from repro.daemon import DaemonClient

    misses, edits, hit_rng = _plan(rng)
    tags = ("bench-0", "bench-1")
    probes.mark()  # the reading before the spawn
    ledger.enter("daemon", "start")
    daemon = Daemon(workdir)
    try:
        setup_s = daemon.wait_ready()
        ledger.exit()
        # The set-up's host factor; also the reading before the first
        # miss.
        setup = [(setup_s, probes.mark())]
        clients = [DaemonClient(daemon.addr, tag=tag) for tag in tags]
        try:
            with DaemonClient(daemon.addr) as stats_client:
                before = stats_client.stats()
                with ledger.span("service", "misses"):
                    miss_results, miss_s = _serial(misses, clients[0],
                                                   probes)
                with ledger.span("service", "hits"):
                    hit_results, hit_s = _hits(clients, misses, hit_rng,
                                               probes)
                with ledger.span("service", "edits"):
                    edit_results, edit_s = _serial(edits, clients[0],
                                                   probes)
                after = stats_client.stats()
        finally:
            for client in clients:
                client.close()
        rss_mb = daemon.peak_rss_mb()
    finally:
        with ledger.span("daemon", "stop"):
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    problems: List[str] = []
    reference: Dict = {}
    # Misses first: they set the reference answers.
    results = miss_results + hit_results + edit_results
    counted = _judge(results, observed, reference, problems)
    server_s, server_n = _server_latency(after, tags)
    client_s = sum(r[2] for r in results)
    return {
        "setup": setup,
        "rss_mb": rss_mb,
        "load_wall_s": miss_s + hit_s + edit_s,
        "requests": len(results),
        "rtts": counted,
        "problems": problems,
        "delta": _telemetry_delta(before, after),
        "overhead_s": (client_s - server_s) / server_n if server_n else 0.0,
        "server_jobs": server_n,
    }


def setup_sample(workdir: str, probes: Probes) -> Tuple[float, float]:
    """A daemon started only to time its set-up, then stopped: the raw
    seconds and the host factor of the interval."""
    probes.mark()
    daemon = Daemon(workdir)
    try:
        setup_s = daemon.wait_ready()
        return setup_s, probes.mark()
    finally:
        daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def _round_dir(k) -> str:
    return os.path.join(OUT_DIR, f"round-{os.getpid()}-{k}")


def _rounds(rng, observed, count: int, seconds: float, probes: Probes,
            ledger: Ledger, extra_setups: int = 0) -> list:
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < count or time.perf_counter() < deadline:
        k = len(rounds)
        rounds.append(run_round(_round_dir(k), rng, observed, probes,
                                ledger))
        rounds[-1]["setup"] += [
            setup_sample(_round_dir(f"{k}-setup-{j}"), probes)
            for j in range(extra_setups)]
    return rounds


def _by_class(rounds, klass: str, raw: bool = False) -> List[float]:
    return [1e3 * (rtt_raw if raw else rtt)
            for r in rounds for c, rtt, rtt_raw, _pair in r["rtts"]
            if c == klass]


def _by_pair(rounds, klass: str) -> Dict[tuple, List[float]]:
    by_pair: Dict[tuple, List[float]] = {}
    for r in rounds:
        for c, rtt, _raw, pair in r["rtts"]:
            if c == klass:
                by_pair.setdefault(tuple(pair), []).append(1e3 * rtt)
    return by_pair


def measure(seed: int, seconds: float) -> dict:
    """Every RTT, every set-up sample, and the load time behind
    ``jobs_per_s``, is divided by its interval's host factor (see
    ``speed.py``).  The record keeps the raw values and every
    factor."""
    rng = random.Random(seed)
    observed = observed_labels()
    probes = Probes()
    rounds = _rounds(rng, observed, MIN_ROUNDS, seconds, probes, Ledger(),
                     EXTRA_SETUPS)
    setup = [raw / factor for r in rounds for raw, factor in r["setup"]]
    metrics = {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median([r["rss_mb"] for r in rounds]), "MB"),
        "jobs_per_s": (sum(r["requests"] for r in rounds)
                       / sum(r["load_wall_s"] for r in rounds), "1/s"),
    }
    # A round holds enough hits for a tail of its own: the median of
    # the rounds' tails is steadier than one pooled tail.
    round_tails = [tail(_by_class([r], "hit"), HITS_PER_ROUND)
                   for r in rounds]
    tails = {"small_tail_ms": dict(round_tails[0], rounds=len(rounds),
                                   value=median([t["value"]
                                                 for t in round_tails]))}
    metrics["small_p50_ms"] = (median(_by_class(rounds, "hit")), "ms")
    metrics["small_tail_ms"] = (tails["small_tail_ms"]["value"], "ms")
    # Every pair is an edit and a miss once per round: each pair's
    # median over rounds first, as in-process (see median_of_medians).
    metrics["medium_p50_ms"] = (median_of_medians(_by_pair(rounds, "edit")),
                                "ms")
    metrics["large_p50_ms"] = (median_of_medians(_by_pair(rounds, "miss")),
                               "ms")
    result = _result(rounds, metrics, tails)
    result["record"]["raw_rtt_ms"] = {
        klass: sorted(_by_class(rounds, klass, raw=True))
        for klass in ("hit", "edit", "miss")}
    result["record"]["setup_samples_s"] = [
        raw for r in rounds for raw, _factor in r["setup"]]
    result["record"]["probe_readings_s"] = probes.readings
    return result


def _result(rounds, metrics, tails=None) -> dict:
    problems = [p for r in rounds for p in r["problems"]]
    attempted = sum(r["requests"] for r in rounds)
    counted = sum(len(r["rtts"]) for r in rounds)
    return {"attempted": attempted, "failed": attempted - counted,
            "metrics": metrics, "tails": tails or {},
            "record": {"rounds": rounds, "problems": problems[:20]}}


def ledger_run(seed: int) -> dict:
    """One round for reference, then the same round traced: the
    service's counters for the round, the daemon's overhead, and the
    ledger of this process's own timeline.  The daemon is observed
    only through its public ``stats`` verb, so tracing adds nothing
    to it beyond the ledger's spans."""
    observed = observed_labels()
    probes = Probes()
    plain = _rounds(random.Random(seed), observed, 1, 0, probes,
                    Ledger())[0]
    ledger = Ledger()
    ledger.enter("bench", "round")
    traced = _rounds(random.Random(seed), observed, 1, 0,
                     Probes(ledger), ledger)[0]
    wall = ledger.exit()
    ledger.reconcile(wall)

    d = traced["delta"]
    lookups = d["cache_hits"] + d["cache_misses"]
    prepared = d["prepared_hits"] + d["prepared_misses"]
    metrics = {
        "service.loops_computed": d["loops_computed"],
        "service.loops_from_cache": d["loops_from_cache"],
        "service.loops_incremental": d["loops_incremental"],
        "service.cache_hit_rate": d["cache_hits"] / lookups if lookups
        else 0.0,
        "service.prepared_hit_rate": d["prepared_hits"] / prepared
        if prepared else 0.0,
        "service.queue_wait_p50_ms": 1e3 * d["queue_wait_p50_s"],
        "service.busy_s": d["busy_s"],
        "service.self_s": ledger.self_s["service"],
        "daemon.overhead_ms": 1e3 * traced["overhead_s"],
        "daemon.sheds": d["jobs_shed"],
        "daemon.self_s": ledger.self_s["daemon"],
        "core.queries": d["orchestrator_queries"],
        "core.module_evals": d["module_evals"],
        "bench.unattributed_s": ledger.self_s["bench"],
        "bench.tracing_overhead":
            traced["load_wall_s"] / plain["load_wall_s"] - 1.0,
    }
    result = _result([plain, traced], metrics)
    result["record"]["self_s"] = dict(ledger.self_s)
    result["record"]["spans"] = ledger.spans
    result["record"]["traced_wall_s"] = wall
    return result
