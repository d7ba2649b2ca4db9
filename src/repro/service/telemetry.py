"""Service telemetry: a MetricsRegistry view with a printable report.

Everything the batch scheduler observes funnels into one
:class:`ServiceTelemetry`, now a thin facade over
:class:`repro.obs.metrics.MetricsRegistry`: every counter the old
hand-rolled fields tracked is a named registry series, the latency
histograms are registry histograms, and worker processes ship their
*labeled* series (per-module evaluation counts, per-workload loop
latencies) back as registry snapshots that merge in.

The public surface is unchanged: ``telemetry.count("requests")``,
attribute reads (``telemetry.cache_hits``), and
:meth:`ServiceTelemetry.snapshot` into the immutable
:class:`TelemetrySnapshot` dataclass that the printable report of
``python -m repro batch`` and the JSON document of ``batch --json``
both render.  The snapshot additionally carries the full registry
dump (``metrics``) so labeled series reach ``--json`` consumers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..obs.metrics import LatencyHistogram, MetricsRegistry

__all__ = [
    "LatencyHistogram",
    "ServiceTelemetry",
    "TelemetrySnapshot",
    "format_report",
]

#: Counter families ServiceTelemetry exposes as attributes (all
#: unlabeled; workers additionally emit labeled variants like
#: ``module_evals{module=...}`` that merge into the same registry).
_COUNTERS = (
    "requests",
    "shards_deduplicated",
    "shards_failed",
    "shards_timed_out",
    "loop_tasks_dispatched",
    "discovery_tasks",
    "loops_computed",
    "loops_from_cache",
    "loops_incremental",
    "loops_fallback",
    "cache_hits",
    "cache_misses",
    "incremental_probes",
    "profile_reuses",
    "prepared_hits",
    "prepared_misses",
    "prepared_evictions",
    "module_evals",
    "orchestrator_queries",
    "wall_s",
    "busy_s",
    "setup_s",
    "tasks_cancelled",
    "fleet_rebuilds",
    "fleet_scale_downs",
    # Predictive cost model + affinity placement (repro.service.costmodel).
    "prepared_affinity_hits",
    "prepared_affinity_misses",
    "prepared_affinity_steals",
    "roster_predictions",
    # Tiered result cache (repro.cachetier): per-tier attribution.
    "l1_hits",
    "l1_misses",
    "l1_lock_retries",
    "l2_hits",
    "l2_misses",
    "l2_writes",
    "l2_writes_shed",
    "l2_writes_dropped",
    "l2_errors",
)


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable view of one service run's observability counters."""

    requests: int
    shards_deduplicated: int
    shards_failed: int
    shards_timed_out: int
    loop_tasks_dispatched: int
    discovery_tasks: int
    loops_computed: int
    loops_from_cache: int
    loops_incremental: int
    loops_fallback: int
    cache_hits: int
    cache_misses: int
    incremental_probes: int
    profile_reuses: int
    prepared_hits: int
    prepared_misses: int
    prepared_evictions: int
    module_evals: int
    orchestrator_queries: int
    workers: int
    wall_s: float
    busy_s: float
    #: Parse+verify+profile+build seconds actually paid (each
    #: prepared-module entry bills setup exactly once, to the task
    #: that populated it — never re-billed on hits).
    setup_s: float
    max_queue_depth: int
    request_latency: Dict[str, float]   # histogram summary
    query_latency: Dict[str, float]     # per-loop analysis latencies
    #: Seconds a queued task waited before dispatch.
    queue_wait: Dict[str, float] = field(default_factory=dict)
    #: Batch-relative completion latency per original request (the
    #: tail-latency headline: recorded once per deduplicated demand
    #: when a request's last task lands).
    request_completion: Dict[str, float] = field(default_factory=dict)
    #: Full registry dump: every labeled series (per-module evals,
    #: per-workload latencies) with raw histogram buckets.
    metrics: Dict = field(default_factory=dict)
    #: Queued tasks swept when their client went away (daemon
    #: disconnect/cancel) or the engine closed mid-queue.
    tasks_cancelled: int = 0
    #: Worker replacements after a crash or an expired task deadline,
    #: plus whole-fleet recycles.
    fleet_rebuilds: int = 0
    #: Idle-TTL worker-fleet teardowns (the daemon's scale-down).
    fleet_scale_downs: int = 0
    #: Tiered result cache: local sqlite (L1) exact-lookup traffic.
    l1_hits: int = 0
    l1_misses: int = 0
    #: Single retries after sqlite lock contention (multi-process L1).
    l1_lock_retries: int = 0
    #: Remote tier (L2): read-through hits/misses, write-behind
    #: publishes, queue-overflow sheds, degraded-drop counts, and
    #: typed failures (per-type series live in ``metrics``).
    l2_hits: int = 0
    l2_misses: int = 0
    l2_writes: int = 0
    l2_writes_shed: int = 0
    l2_writes_dropped: int = 0
    l2_errors: int = 0
    #: Affinity placement: loop tasks routed to a worker slot whose
    #: modeled prepared-LRU already held the module (hits) vs not
    #: (misses), and charged tasks an idle slot took from another
    #: slot's residency (steals — affinity never strands a worker).
    prepared_affinity_hits: int = 0
    prepared_affinity_misses: int = 0
    prepared_affinity_steals: int = 0
    #: Requests whose hot-loop roster was predicted from lineage
    #: history, skipping the discovery barrier.
    roster_predictions: int = 0
    #: |predicted - measured| wall seconds per finished loop task
    #: (histogram summary; empty when the cost model is off).
    prediction_error: Dict[str, float] = field(default_factory=dict)

    @property
    def prepared_affinity_hit_rate(self) -> float:
        total = self.prepared_affinity_hits + self.prepared_affinity_misses
        return self.prepared_affinity_hits / total if total else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def prepared_hit_rate(self) -> float:
        """Fraction of loop tasks served from a worker's prepared-
        module cache (module setup already paid)."""
        total = self.prepared_hits + self.prepared_misses
        return self.prepared_hits / total if total else 0.0

    @property
    def worker_utilization(self) -> float:
        """Busy worker-seconds over available worker-seconds."""
        available = self.workers * self.wall_s
        return min(1.0, self.busy_s / available) if available else 0.0


class ServiceTelemetry:
    """Mutable accumulator: named series in a MetricsRegistry."""

    def __init__(self, workers: int,
                 registry: Optional[MetricsRegistry] = None):
        self.registry = registry or MetricsRegistry()
        self.workers = workers
        self.request_latency = self.registry.histogram("shard_latency_s")
        self.query_latency = self.registry.histogram("loop_latency_s")
        self.queue_wait = self.registry.histogram("queue_wait_s")
        self.request_completion = \
            self.registry.histogram("request_completion_s")
        #: |predicted - measured| seconds per finished loop task; the
        #: cost model records into it, exposition renders it as
        #: ``repro_sched_prediction_error_s``.
        self.prediction_error = \
            self.registry.histogram("sched_prediction_error_s")
        self._queue = self.registry.gauge("queue_depth")
        #: Optional live ops plane (:class:`repro.obs.live.LiveOps`).
        #: ``None`` outside the daemon; the engine guards every
        #: observe call on it so batch mode pays one attribute read.
        self.live = None
        # Materialize every counter so attribute reads and snapshots
        # see zeros (not missing series) on an idle service.
        self._counters = {name: self.registry.counter(name)
                          for name in _COUNTERS}

    def count(self, counter: str, n=1) -> None:
        self._counters[counter].inc(n)

    def enqueue(self) -> None:
        self._queue.inc()

    def dequeue(self) -> None:
        self._queue.dec()

    def attach_live(self, live) -> None:
        """Install a :class:`repro.obs.live.LiveOps` plane; every
        engine-delivered task outcome flows into its window and
        flight recorder from then on."""
        self.live = live

    def merge_worker_metrics(self, snapshot: Dict) -> None:
        """Fold a worker registry snapshot (labeled series) in."""
        if snapshot:
            self.registry.merge(snapshot)

    def __getattr__(self, name: str):
        # Only consulted for attributes not set in __init__: expose
        # counter values (telemetry.cache_hits et al.) read-only.
        counters = self.__dict__.get("_counters")
        if counters and name in counters:
            return counters[name].value
        if name == "queue_depth":
            return self.__dict__["_queue"].value
        if name == "max_queue_depth":
            return self.__dict__["_queue"].max
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def snapshot(self) -> TelemetrySnapshot:
        value = self.registry.value
        return TelemetrySnapshot(
            requests=value("requests"),
            shards_deduplicated=value("shards_deduplicated"),
            shards_failed=value("shards_failed"),
            shards_timed_out=value("shards_timed_out"),
            loop_tasks_dispatched=value("loop_tasks_dispatched"),
            discovery_tasks=value("discovery_tasks"),
            loops_computed=value("loops_computed"),
            loops_from_cache=value("loops_from_cache"),
            loops_incremental=value("loops_incremental"),
            loops_fallback=value("loops_fallback"),
            cache_hits=value("cache_hits"),
            cache_misses=value("cache_misses"),
            incremental_probes=value("incremental_probes"),
            profile_reuses=value("profile_reuses"),
            prepared_hits=value("prepared_hits"),
            prepared_misses=value("prepared_misses"),
            prepared_evictions=value("prepared_evictions"),
            module_evals=value("module_evals"),
            orchestrator_queries=value("orchestrator_queries"),
            workers=self.workers,
            wall_s=value("wall_s"),
            busy_s=value("busy_s"),
            setup_s=value("setup_s"),
            max_queue_depth=self._queue.max,
            request_latency=self.request_latency.summary(),
            query_latency=self.query_latency.summary(),
            queue_wait=self.queue_wait.summary(),
            request_completion=self.request_completion.summary(),
            metrics=self.registry.snapshot(),
            tasks_cancelled=value("tasks_cancelled"),
            fleet_rebuilds=value("fleet_rebuilds"),
            fleet_scale_downs=value("fleet_scale_downs"),
            l1_hits=value("l1_hits"),
            l1_misses=value("l1_misses"),
            l1_lock_retries=value("l1_lock_retries"),
            l2_hits=value("l2_hits"),
            l2_misses=value("l2_misses"),
            l2_writes=value("l2_writes"),
            l2_writes_shed=value("l2_writes_shed"),
            l2_writes_dropped=value("l2_writes_dropped"),
            l2_errors=value("l2_errors"),
            prepared_affinity_hits=value("prepared_affinity_hits"),
            prepared_affinity_misses=value("prepared_affinity_misses"),
            prepared_affinity_steals=value("prepared_affinity_steals"),
            roster_predictions=value("roster_predictions"),
            prediction_error=self.prediction_error.summary(),
        )


def format_report(snap: TelemetrySnapshot) -> str:
    """The printable telemetry block of ``python -m repro batch``."""
    def _lat(name: str, s: Dict[str, float]) -> str:
        return (f"  {name:<16s} n={int(s['count']):<5d} "
                f"mean={s['mean_s'] * 1e3:8.2f}ms "
                f"p50={s['p50_s'] * 1e3:8.2f}ms "
                f"p90={s['p90_s'] * 1e3:8.2f}ms "
                f"p99={s['p99_s'] * 1e3:8.2f}ms "
                f"max={s['max_s'] * 1e3:8.2f}ms")

    lines = [
        "service telemetry",
        "-----------------",
        f"  requests         {snap.requests} "
        f"({snap.loop_tasks_dispatched} loop tasks dispatched "
        f"({snap.discovery_tasks} discovery), "
        f"{snap.shards_deduplicated} deduplicated in-flight)",
        f"  loops            {snap.loops_computed} computed, "
        f"{snap.loops_from_cache} from cache "
        f"({snap.loops_incremental} via footprint revalidation), "
        f"{snap.loops_fallback} conservative fallback",
        f"  result cache     {snap.cache_hits} hits / "
        f"{snap.cache_misses} misses "
        f"(hit rate {snap.cache_hit_rate:.1%}, "
        f"{snap.incremental_probes} incremental probes, "
        f"{snap.profile_reuses} profile-roster reuses)",
        f"  prepared modules {snap.prepared_hits} hits / "
        f"{snap.prepared_misses} misses "
        f"(hit rate {snap.prepared_hit_rate:.1%}, "
        f"{snap.prepared_evictions} evictions, "
        f"setup {snap.setup_s:.2f}s billed once)",
        f"  robustness       {snap.shards_timed_out} shard timeouts, "
        f"{snap.shards_failed} worker failures",
        f"  orchestrators    {snap.orchestrator_queries} queries, "
        f"{snap.module_evals} module evaluations",
        f"  workers          {snap.workers} "
        f"(utilization {snap.worker_utilization:.1%}, "
        f"busy {snap.busy_s:.2f}s of {snap.wall_s:.2f}s wall)",
        f"  queue            max depth {snap.max_queue_depth}",
        _lat("shard latency", snap.request_latency),
        _lat("loop latency", snap.query_latency),
    ]
    if snap.queue_wait.get("count"):
        lines.append(_lat("queue wait", snap.queue_wait))
    if snap.request_completion.get("count"):
        lines.append(_lat("req completion", snap.request_completion))
    if snap.tasks_cancelled or snap.fleet_rebuilds \
            or snap.fleet_scale_downs:
        lines.append(
            f"  fleet            {snap.tasks_cancelled} tasks cancelled, "
            f"{snap.fleet_rebuilds} rebuilds, "
            f"{snap.fleet_scale_downs} idle scale-downs")
    affinity_traffic = (snap.prepared_affinity_hits
                        + snap.prepared_affinity_misses)
    if affinity_traffic or snap.roster_predictions:
        lines.append(
            f"  cost model       affinity {snap.prepared_affinity_hits}"
            f"/{affinity_traffic} placements resident "
            f"(hit rate {snap.prepared_affinity_hit_rate:.1%}, "
            f"{snap.prepared_affinity_steals} steals), "
            f"{snap.roster_predictions} predicted rosters")
    if snap.prediction_error.get("count"):
        lines.append(_lat("pred error", snap.prediction_error))
    tier_traffic = (snap.l1_hits + snap.l1_misses + snap.l2_hits
                    + snap.l2_misses + snap.l2_writes + snap.l2_errors)
    if tier_traffic:
        lines.append(
            f"  cache tiers      L1 {snap.l1_hits} hits / "
            f"{snap.l1_misses} misses "
            f"({snap.l1_lock_retries} lock retries); "
            f"L2 {snap.l2_hits} hits / {snap.l2_misses} misses, "
            f"{snap.l2_writes} writes "
            f"({snap.l2_writes_shed} shed, "
            f"{snap.l2_writes_dropped} dropped), "
            f"{snap.l2_errors} errors")
    return "\n".join(lines)
