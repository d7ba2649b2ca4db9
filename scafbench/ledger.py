"""The per-layer ledger of a traced run.

Spans are recorded from this benchmark's own code, around calls into
each layer's public functions; the program itself is not edited.  A
span's *self* time is its duration minus the time of the spans nested
inside it, so the self times of all layers plus the root span's own
self time (``bench``, the benchmark's glue) add up to the traced wall
time exactly.  Fine-grained spans (module evaluations, premises,
analysis lookups) are folded into per-layer totals as they close;
only the coarse ones (the pass, each job, each stage of a job) are
kept as a span list and written out with the run's record.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List

from common import BenchError

#: Spans at this depth or shallower are kept in the span list.
COARSE_DEPTH = 3


class Ledger:
    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.spans: List[dict] = []
        self._stack: List[list] = []  # [layer, start, child_s, span_index]

    def enter(self, layer: str, name: str = "") -> None:
        index = -1
        if len(self._stack) < COARSE_DEPTH:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append({"layer": layer, "name": name or layer,
                               "parent": parent})
        self._stack.append([layer, time.perf_counter(), 0.0, index])

    def exit(self) -> float:
        end = time.perf_counter()
        layer, start, child_s, index = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index].update(start=start, end=end)
        return duration

    @contextmanager
    def span(self, layer: str, name: str = ""):
        self.enter(layer, name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return traced

    def reconcile(self, wall_s: float) -> float:
        """Check that no span is left open and that the self times
        partition ``wall_s``, the root span's duration: a span closed
        out of order would break both.  Returns the sum."""
        if self._stack:
            raise BenchError(f"{len(self._stack)} spans left open")
        total = sum(self.self_s.values())
        if any(v < -1e-9 for v in self.self_s.values()) or \
                abs(total - wall_s) > 1e-6 * max(1.0, wall_s):
            raise BenchError(f"ledger does not reconcile: self times "
                               f"sum to {total!r}, traced wall {wall_s!r}")
        return total


class PremiseCounter:
    """Distinct premise keys per job, summed over jobs, and the deepest
    premise level seen."""

    def __init__(self):
        self.keys = set()
        self.distinct = 0
        self.max_depth = 0

    def end_job(self) -> None:
        self.distinct += len(self.keys)
        self.keys = set()

    def observe(self, resolver, query) -> None:
        self.keys.add(query.key())
        depth = resolver.depth + 1
        if depth > self.max_depth:
            self.max_depth = depth


@contextmanager
def instrumented(ledger: Ledger, premises: PremiseCounter):
    """Patch span wrappers onto the public entry points of the analysis,
    core and premise layers for the duration of the block."""
    from repro.analysis import context as analysis_context
    from repro.core import framework, orchestrator

    ctx_cls = analysis_context.AnalysisContext
    resolver_cls = orchestrator._PremiseResolver
    patches = [
        (ctx_cls, name, ledger.wrap("analysis", getattr(ctx_cls, name)))
        for name in ("dominator_tree", "loop_info", "scalar_evolution",
                     "users_of")]
    patches.append((ctx_cls, "callgraph", property(
        ledger.wrap("analysis", ctx_cls.callgraph.fget))))
    patches.append((framework.DependenceAnalysis, "query", ledger.wrap(
        "core", framework.DependenceAnalysis.query)))

    original_premise = resolver_cls.premise

    def premise(resolver, query):
        premises.observe(resolver, query)
        return original_premise(resolver, query)

    patches.append((resolver_cls, "premise", ledger.wrap("core", premise)))

    saved = [(owner, name, owner.__dict__[name])
             for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def wrap_modules(ledger: Ledger, system) -> None:
    """Give each analysis module of a built system its own layer."""
    coordinator = system.coordinator
    modules = list(getattr(coordinator, "modules", ()))
    caf = getattr(coordinator, "caf", None)
    if caf is not None:
        modules += list(caf.modules) + list(coordinator.speculation_modules)
    for module in modules:
        layer = f"modules.{module.name}"
        module.alias = ledger.wrap(layer, module.alias)
        module.modref = ledger.wrap(layer, module.modref)
