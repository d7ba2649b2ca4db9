"""Predictive cost-model scheduler tests: the measured-duration LPT
upgrade and prepared-module affinity placement.

Pins the four load-bearing properties of the cost model PR:

- **One batched sqlite read** prices an entire batch
  (``lookup_durations_many``): a query-count regression so per-loop
  probes can never creep back in;
- **EWMA blending and the static prior**: measured history blends
  0.8/0.2 with the calibrated static estimate, missing or pruned
  history degrades to exactly the static LPT rank, the setup
  sentinel rides the same table without leaking into rosters;
- **Deterministic tie-breaks**: equal-weight tickets execute in
  ``(module, loop)`` order regardless of submission order (and hence
  of hash seed);
- **Affinity placement with steal-when-idle**: setup-charged tickets
  prefer slots whose modeled prepared-LRU holds the module, an idle
  slot still always takes work (counted as a steal), and — the
  acceptance property — cost-model-on answers are byte-identical to
  cost-model-off on real workloads, including all 16 at once.
"""

import tempfile
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.service import (
    BatchScheduler,
    CostModel,
    ResultCache,
    SETUP_LOOP_KEY,
    request_for_workload,
    reset_prepared_cache,
)
from repro.service.costmodel import DEFAULT_SECONDS_PER_WEIGHT
from repro.service.engine import Ticket, WorkEngine, lpt_weight
from repro.service.telemetry import ServiceTelemetry


# -- satellite: one batched sqlite read per request --------------------------

class TestBatchedDurationReads:
    def _seeded_cache(self, tmp_path, lineages):
        cache = ResultCache(str(tmp_path / "cache"))
        for i, lineage in enumerate(lineages):
            cache.record_durations(
                f"v{i}", lineage,
                {f"@f{i}:%l": 0.5 + i, SETUP_LOOP_KEY: 0.1 * (i + 1)})
        return cache

    def test_lookup_durations_many_is_one_query(self, tmp_path):
        """The whole batch prices with ONE parameterized SELECT —
        the regression gate against per-loop (or per-key) probes."""
        lineages = [f"lin{i}" for i in range(5)]
        cache = self._seeded_cache(tmp_path, lineages)
        statements = []
        cache._conn.set_trace_callback(statements.append)
        try:
            out = cache.lookup_durations_many(lineages)
        finally:
            cache._conn.set_trace_callback(None)
        cache.close()
        selects = [s for s in statements if s.lstrip().upper()
                   .startswith("SELECT")]
        assert len(selects) == 1, selects
        assert set(out) == set(lineages)

    def test_batched_read_matches_singular_reads(self, tmp_path):
        lineages = [f"lin{i}" for i in range(4)]
        cache = self._seeded_cache(tmp_path, lineages)
        many = cache.lookup_durations_many(lineages + ["absent", ""])
        for lineage in lineages:
            assert many[lineage] == cache.lookup_durations(lineage)
        assert "absent" not in many  # no empty placeholder rows
        assert "" not in many
        cache.close()

    def test_freshest_row_wins_within_batch(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.record_durations("v1", "lin", {"@f:%l": 1.0})
        time.sleep(0.02)  # distinct updated_at
        cache.record_durations("v2", "lin", {"@f:%l": 9.0})
        looked = cache.lookup_durations_many(["lin"])["lin"]
        # v2's EWMA-free first sample is the freshest row for @f:%l.
        assert looked["@f:%l"] == pytest.approx(9.0)
        cache.close()


# -- EWMA blending, static fallback, the setup sentinel ----------------------

class _StubCache:
    """A durations table stub: predict_batch sees exactly `rows`."""

    def __init__(self, rows):
        self.rows = rows
        self.calls = 0

    def lookup_durations_many(self, lineage_keys):
        self.calls += 1
        return {k: dict(v) for k, v in self.rows.items()
                if k in lineage_keys}


class TestPredictions:
    def test_static_prior_when_no_history(self):
        model = CostModel(_StubCache({}))
        pred = model.predict_batch({"k": "lin"})["k"]
        assert pred.roster == ()
        w = lpt_weight(0.5, 1_000_000)
        assert (model.predict_loop(pred, "@f:%l", w)
                == pytest.approx(DEFAULT_SECONDS_PER_WEIGHT * w))
        # Pruned/empty durations: ordering degrades to static LPT —
        # the prediction scales every weight by one shared ratio.
        w2 = lpt_weight(0.9, 5_000)
        assert (model.predict_loop(pred, "@g:%l", w2)
                < model.predict_loop(pred, "@f:%l", w))

    def test_measured_blends_with_static_prior(self):
        model = CostModel(_StubCache({"lin": {"@f:%l": 2.0}}))
        # Calibrate the ratio with one observation: 1s per 1000 weight.
        model.observe("lin", "@g:%l", 1.0, static_weight=1000.0)
        pred = model.predict_batch({"k": "lin"})["k"]
        got = model.predict_loop(pred, "@f:%l", 500.0)
        assert got == pytest.approx(0.8 * 2.0 + 0.2 * (500.0 / 1000.0))

    def test_pure_measured_when_no_static_weight(self):
        model = CostModel(_StubCache({"lin": {"@f:%l": 2.0}}))
        assert model.predict_loop(
            model.predict_batch({"k": "lin"})["k"], "@f:%l", 0.0) == 2.0

    def test_setup_sentinel_feeds_setup_not_roster(self):
        model = CostModel(_StubCache(
            {"lin": {"@f:%l": 2.0, SETUP_LOOP_KEY: 0.3}}))
        pred = model.predict_batch({"k": "lin"})["k"]
        assert pred.setup_s == pytest.approx(0.3)
        assert pred.roster == ("@f:%l",)

    def test_memo_overlays_disk_rows(self):
        """Live observations (this daemon's unflushed measurements)
        beat the stale disk EWMA."""
        model = CostModel(_StubCache({"lin": {"@f:%l": 2.0}}))
        model.observe("lin", "@f:%l", 6.0)          # first sample: raw
        model.observe("lin", "@f:%l", 2.0)          # EWMA 0.5 -> 4.0
        pred = model.predict_batch({"k": "lin"})["k"]
        assert pred.loop_s["@f:%l"] == pytest.approx(4.0)

    def test_ratio_calibration_first_sample_replaces(self):
        model = CostModel(_StubCache({}))
        model.observe("lin", "@a:%l", 2.0, static_weight=1000.0)
        assert model.stats()["seconds_per_weight"] == pytest.approx(0.002)
        model.observe("lin", "@b:%l", 1.0, static_weight=1000.0)
        # EWMA at 0.2: 0.2*0.001 + 0.8*0.002
        assert model.stats()["seconds_per_weight"] == pytest.approx(0.0018)

    def test_cache_failure_never_blocks_scheduling(self):
        class _Broken:
            def lookup_durations_many(self, keys):
                raise RuntimeError("disk gone")

        model = CostModel(_Broken())
        pred = model.predict_batch({"k": "lin"})["k"]
        assert pred.roster == () and pred.setup_s == 0.0


# -- satellite: deterministic LPT tie-break ----------------------------------

class _FakeRequest:
    def __init__(self, name):
        self.name = name
        self.system = "scaf"

    def version_key(self):
        return self.name


class _FakeTask:
    def __init__(self, workload, loop):
        self.request = _FakeRequest(workload)
        self.loop = loop
        self.prepared_cache_size = 4


class TestDeterministicTieBreak:
    def _execution_order(self, specs):
        order, outcomes = [], []

        def runner(task):
            order.append((task.request.name, task.loop))
            return SimpleNamespace(prepared_hit=False, spans=[])

        engine = WorkEngine("inline", 0, max_pending=1,
                            telemetry=ServiceTelemetry(1),
                            loop_runner=runner)
        try:
            engine.submit([
                Ticket(_FakeTask(workload, loop), key=workload,
                       weight=weight,
                       deliver=lambda t, o, r, e: outcomes.append(o))
                for workload, loop, weight in specs])
            assert engine.drain(timeout_s=10.0)
        finally:
            engine.close()
        assert all(o == "ok" for o in outcomes)
        return order

    def test_equal_weights_break_by_module_then_loop(self):
        """Ties resolve ``(module, loop)`` — a property of the ticket
        *contents*, so it holds under any hash seed and any
        submission order (the old seq tie-break froze whatever order
        the fan-out loop happened to iterate keys in)."""
        specs = [(m, loop, 7.5)
                 for m in ("zeta", "alpha", "mid")
                 for loop in ("@b:%l", "@a:%l")]
        expected = sorted((m, loop) for m, loop, _ in specs)
        assert self._execution_order(specs) == expected
        assert self._execution_order(list(reversed(specs))) == expected

    def test_weight_still_dominates_the_tie_break(self):
        specs = [("zzz", "@z:%l", 9.0), ("aaa", "@a:%l", 1.0),
                 ("mmm", "@m:%l", 5.0)]
        assert self._execution_order(specs) == [
            ("zzz", "@z:%l"), ("mmm", "@m:%l"), ("aaa", "@a:%l")]


# -- affinity placement + steal-when-idle ------------------------------------

class TestAffinityPlacement:
    def _run(self, tickets_spec, workers=2):
        """tickets_spec: (module, loop, weight, predicted_setup)."""
        lock = threading.Lock()
        ran = []

        def runner(task):
            with lock:
                ran.append((task.request.name, task.loop,
                            threading.get_ident()))
            time.sleep(0.05)
            return SimpleNamespace(prepared_hit=True, spans=[])

        telemetry = ServiceTelemetry(workers)
        engine = WorkEngine("thread", workers, max_pending=2 * workers,
                            telemetry=telemetry, loop_runner=runner)
        outcomes = []
        try:
            engine.submit([
                Ticket(_FakeTask(module, loop), key=module, weight=weight,
                       deliver=lambda t, o, r, e: outcomes.append(o),
                       predicted_setup=setup)
                for module, loop, weight, setup in tickets_spec])
            assert engine.drain(timeout_s=15.0)
        finally:
            engine.close()
        assert all(o == "ok" for o in outcomes)
        assert len(outcomes) == len(tickets_spec)
        return ran, telemetry.snapshot()

    def test_idle_slot_steals_rather_than_starve(self):
        """Four tasks of one module, two slots: affinity wants them
        colocated, but an idle slot must take work anyway — exactly
        one placement is a counted steal, and everything completes."""
        ran, snap = self._run(
            [("modA", f"@l{i}:%l", 1.0, 1.0) for i in range(4)])
        assert len(ran) == 4
        assert snap.prepared_affinity_misses == 2   # one per slot
        assert snap.prepared_affinity_hits == 2     # revisits are free
        assert snap.prepared_affinity_steals == 1   # the idle-slot grab
        assert len({ident for _, _, ident in ran}) == 2

    def test_resident_module_outranks_heavier_stranger(self):
        """One slot, module A resident after its first task: A's
        follow-up (weight 1.0, no charge — resident) must run before
        module B's nominally heavier task (weight 1.2 minus the 0.5
        setup charge = 0.7 effective).  Without charges the static
        order would run B first — the exact reorder affinity buys."""
        spec = [("modA", "@a0:%l", 5.0, 0.5),
                ("modB", "@b0:%l", 1.2, 0.5),
                ("modA", "@a1:%l", 1.0, 0.5)]
        ran, snap = self._run(spec, workers=1)
        assert [(m, loop) for m, loop, _ in ran] == [
            ("modA", "@a0:%l"), ("modA", "@a1:%l"), ("modB", "@b0:%l")]
        assert snap.prepared_affinity_hits == 1      # @a1 on resident A
        assert snap.prepared_affinity_misses == 2    # first touches
        assert snap.prepared_affinity_steals == 0    # nothing to steal

        # Uncharged control: the same tickets in plain LPT order.
        static = [(m, loop, w, 0.0) for m, loop, w, _ in spec]
        ran, _ = self._run(static, workers=1)
        assert [(m, loop) for m, loop, _ in ran] == [
            ("modA", "@a0:%l"), ("modB", "@b0:%l"), ("modA", "@a1:%l")]

    def test_uncharged_tickets_keep_plain_lpt_cost(self):
        """No setup predictions queued -> placement is a plain
        priority pop (static mode's byte-identical fast path); the
        affinity counters still record placements, never steals."""
        ran, snap = self._run(
            [("modA", f"@l{i}:%l", float(4 - i), 0.0) for i in range(4)],
            workers=1)
        assert [loop for _, loop, _ in ran] == [
            "@l0:%l", "@l1:%l", "@l2:%l", "@l3:%l"]
        assert snap.prepared_affinity_steals == 0


# -- satellite: cost-model-on == cost-model-off, byte for byte ---------------

#: The cheap end of the corpus: fast enough for hypothesis to run the
#: full analysis pipeline repeatedly under drawn duration tables.
CHEAP_WORKLOADS = ("129.compress", "164.gzip", "429.mcf", "179.art")


def _identity_bytes(answer_lists):
    """Byte-exact serialization of everything that must not change
    (identity excludes latency/provenance by construction)."""
    return repr([[a.identity() for a in answers]
                 for answers in answer_lists]).encode()


def _run_real(requests, cache=None, cost_model=False, workers=0,
              executor="inline"):
    reset_prepared_cache()  # inline runs share this process's LRU
    scheduler = BatchScheduler(workers=workers, executor=executor,
                               cache=cache,
                               incremental=False, cost_model=cost_model)
    try:
        return scheduler.run_batch(requests), scheduler
    finally:
        scheduler.close()


class TestCostModelParity:
    @pytest.fixture(scope="class")
    def baseline(self):
        requests = [request_for_workload(n) for n in CHEAP_WORKLOADS]
        answers, _ = _run_real(requests, cost_model=False)
        rosters = {req.name: [a.loop for a in answer_list]
                   for req, answer_list in zip(requests, answers)}
        fractions = {req.name: {a.loop: a.time_fraction
                                for a in answer_list}
                     for req, answer_list in zip(requests, answers)}
        return {"identities": _identity_bytes(answers),
                "per_request": {req.name: _identity_bytes([answer_list])
                                for req, answer_list
                                in zip(requests, answers)},
                "rosters": rosters, "fractions": fractions}

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_predictions_never_change_answers(self, baseline, data):
        """The acceptance property: whatever the durations table
        claims — accurate, wildly wrong, or naming loops that do not
        exist — cost-model-on answers are byte-identical to
        cost-model-off.  Predictions reorder and pre-enqueue work;
        they must never alter it."""
        names = data.draw(st.lists(st.sampled_from(CHEAP_WORKLOADS),
                                   unique=True, min_size=1),
                          label="workloads")
        requests = [request_for_workload(n) for n in names]
        seconds = st.floats(min_value=1e-4, max_value=30.0,
                            allow_nan=False)
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp)
            for request in requests:
                roster = baseline["rosters"][request.name]
                rows = {loop: data.draw(seconds, label=f"s:{loop}")
                        for loop in roster
                        if data.draw(st.booleans(), label=f"has:{loop}")}
                for g in range(data.draw(st.integers(0, 2),
                                         label="ghosts")):
                    rows[f"@ghost{g}:%stale"] = data.draw(
                        seconds, label=f"ghost{g}")
                rows[SETUP_LOOP_KEY] = data.draw(seconds, label="setup")
                cache.record_durations(request.version_key(),
                                       request.duration_lineage(), rows)
            answers, scheduler = _run_real(requests, cache=cache,
                                           cost_model=True)
            cache.close()
        got = [_identity_bytes([answer_list]) for answer_list in answers]
        assert got == [baseline["per_request"][n] for n in names]
        # Predicted-roster tasks launch with a placeholder 0.0 time
        # fraction; delivery must still carry the discovered profile.
        for request, answer_list in zip(requests, answers):
            want = baseline["fractions"][request.name]
            for a in answer_list:
                assert a.time_fraction == pytest.approx(want[a.loop])
        snap = scheduler.telemetry.snapshot()
        assert snap.loops_fallback == 0

    def test_all_16_workloads_byte_identical(self):
        """The full corpus through a real 4-process fleet, off vs on
        (durations warmed from the off run, so predicted rosters and
        affinity placement genuinely engage)."""
        from repro.workloads import ALL_WORKLOADS

        requests = [request_for_workload(w.name) for w in ALL_WORKLOADS]
        assert len(requests) == 16
        with tempfile.TemporaryDirectory() as tmp:
            base_cache = ResultCache(tmp + "/off")
            off, _ = _run_real(requests, cache=base_cache,
                               cost_model=False, workers=4,
                               executor="process")
            warm_cache = ResultCache(tmp + "/on")
            for request in requests:
                rows = base_cache.lookup_durations(
                    request.duration_lineage())
                assert rows, f"no durations persisted for {request.name}"
                warm_cache.record_durations(request.version_key(),
                                            request.duration_lineage(),
                                            rows)
            base_cache.close()
            on, scheduler = _run_real(requests, cache=warm_cache,
                                      cost_model=True, workers=4,
                                      executor="process")
            warm_cache.close()
        assert _identity_bytes(on) == _identity_bytes(off)
        snap = scheduler.telemetry.snapshot()
        assert snap.roster_predictions == 16
        assert snap.loops_fallback == 0
