"""Span-based tracing: follow one query through the whole stack.

A :class:`TraceContext` collects :class:`Span` records — named,
timed, attributed intervals with parent links and point-in-time
events — from every layer of the reproduction: the Orchestrator
(span per query, child span per module evaluation, premise-query
recursion), the batch scheduler (dedup, cache probe, task dispatch),
pool workers (loop tasks: module setup, per-loop analysis), and the
interpreter's profiling run.

Design constraints (see DESIGN.md §6):

- **Zero cost when disabled.**  The process-wide current tracer
  defaults to :data:`NOOP`, whose ``enabled`` is ``False`` and whose
  ``span``/``begin``/``event`` return shared no-op singletons.  Hot
  paths (the Orchestrator) additionally guard on ``tracer.enabled``
  so no attribute dict is ever built for a disabled tracer.
- **Sampling-aware.**  ``TraceContext(sample_every=N)`` records every
  N-th *sampling root* (the Orchestrator marks its top-level query
  spans ``sample=True``) together with its entire subtree and
  suppresses the rest; infrastructure spans (loop tasks, profiling,
  scheduler phases) are never sampled away.
- **Cross-process merge.**  Spans timestamp their start with the
  epoch clock (``time.time``) and measure duration with the
  monotonic clock, carry ``pid``/``tid``, and serialize to plain
  dicts.  A worker ships its finished spans back inside the
  :class:`~repro.service.worker.LoopTaskResult` and the work engine
  re-parents them under the task's dispatch span
  (:meth:`TraceContext.adopt`), yielding one timeline across
  processes.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "NOOP",
    "Span",
    "TraceContext",
    "TraceSpec",
    "current_tracer",
    "set_tracer",
    "span_index",
    "validate_spans",
]


class Span:
    """One timed interval of work; append-only once ended."""

    __slots__ = ("id", "parent", "name", "cat", "start", "dur",
                 "pid", "tid", "attrs", "events", "_ctx", "_t0")

    def __init__(self, ctx: "TraceContext", span_id: str,
                 parent: Optional[str], name: str, cat: str,
                 attrs: Dict):
        self._ctx = ctx
        self.id = span_id
        self.parent = parent
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.events: List[Dict] = []
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.start = time.time()
        self.dur = 0.0
        self._t0 = time.perf_counter()

    # -- recording -----------------------------------------------------------

    def set(self, **attrs) -> None:
        """Attach or update attributes (e.g. the result, at exit)."""
        self.attrs.update(attrs)

    def event(self, name: str, **attrs) -> None:
        """A point-in-time marker inside this span."""
        self.events.append({"name": name, "ts": time.time(),
                            "attrs": attrs})

    def end(self, **attrs) -> None:
        """Finalize a span begun with :meth:`TraceContext.begin`."""
        if attrs:
            self.attrs.update(attrs)
        self.dur = time.perf_counter() - self._t0
        self._ctx._store(self)

    # -- context-manager protocol (stack-parented spans) ---------------------

    def __enter__(self) -> "Span":
        self._ctx._push(self)
        return self

    def __exit__(self, *exc) -> None:
        self.dur = time.perf_counter() - self._t0
        self._ctx._pop(self)
        self._ctx._store(self)

    def to_dict(self) -> Dict:
        return {
            "id": self.id, "parent": self.parent,
            "name": self.name, "cat": self.cat,
            "start": self.start, "dur": self.dur,
            "pid": self.pid, "tid": self.tid,
            "attrs": dict(self.attrs), "events": list(self.events),
        }


class _NullSpan:
    """Shared do-nothing span: the disabled/suppressed stand-in."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    def event(self, name: str, **attrs) -> None:
        pass

    def end(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _SuppressedSpan:
    """Subtree suppression marker used by sampling.

    Entering bumps the thread's suppression depth so every nested
    ``span``/``begin``/``event`` no-ops until this span exits.
    """

    __slots__ = ("_ctx",)

    def __init__(self, ctx: "TraceContext"):
        self._ctx = ctx

    def set(self, **attrs) -> None:
        pass

    def event(self, name: str, **attrs) -> None:
        pass

    def end(self, **attrs) -> None:
        self._ctx._local.suppress -= 1

    def __enter__(self) -> "_SuppressedSpan":
        return self

    def __exit__(self, *exc) -> None:
        self._ctx._local.suppress -= 1


class _TraceLocal(threading.local):
    def __init__(self):
        self.stack: List[Span] = []
        self.suppress: int = 0


#: Per-process TraceContext serial: span ids are namespaced by
#: ``pid.context`` so two contexts in one process (the inline and
#: thread executors run loop tasks in the scheduler's process)
#: can never mint colliding ids.
_CONTEXT_SERIAL = itertools.count(1)


class TraceContext:
    """A live trace: an append-only pool of finished spans."""

    enabled = True

    def __init__(self, sample_every: int = 1):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1, got "
                             f"{sample_every}")
        self.sample_every = sample_every
        self._lock = threading.Lock()
        self._finished: List[Dict] = []
        self._local = _TraceLocal()
        self._next_id = 0
        self._sample_counter = 0
        self._id_prefix = f"{os.getpid():x}.{next(_CONTEXT_SERIAL):x}"

    # -- span creation -------------------------------------------------------

    def span(self, name: str, cat: str = "span", sample: bool = False,
             **attrs):
        """A stack-parented span for ``with`` blocks.

        ``sample=True`` marks a sampling root: only every
        ``sample_every``-th such span (per tracer) is recorded, and a
        skipped root suppresses its entire subtree.
        """
        local = self._local
        if local.suppress:
            local.suppress += 1
            return _SuppressedSpan(self)
        if sample and self.sample_every > 1:
            self._sample_counter += 1
            if (self._sample_counter - 1) % self.sample_every:
                local.suppress += 1
                return _SuppressedSpan(self)
        parent = local.stack[-1].id if local.stack else None
        return Span(self, self._new_id(), parent, name, cat, attrs)

    def begin(self, name: str, cat: str = "span",
              parent: Optional[str] = None, **attrs):
        """An explicitly-parented span (may end out of stack order);
        finalize with :meth:`Span.end`."""
        if self._local.suppress:
            self._local.suppress += 1
            return _SuppressedSpan(self)
        if parent is None:
            stack = self._local.stack
            parent = stack[-1].id if stack else None
        return Span(self, self._new_id(), parent, name, cat, attrs)

    def event(self, name: str, **attrs) -> None:
        """Attach an event to the innermost open span (dropped when
        no span is open or the subtree is suppressed)."""
        local = self._local
        if local.suppress or not local.stack:
            return
        local.stack[-1].event(name, **attrs)

    # -- collection ----------------------------------------------------------

    def export(self) -> List[Dict]:
        """All finished spans as plain dicts (oldest first)."""
        with self._lock:
            return list(self._finished)

    def adopt(self, spans: List[Dict],
              parent_id: Optional[str] = None) -> None:
        """Merge spans serialized in another process into this trace.

        Foreign root spans (``parent is None``) are re-parented under
        ``parent_id`` — the work engine passes its dispatch span so a
        worker's timeline nests inside the task that ran it.  Ids are
        namespaced by pid at creation, so no rewriting is needed.
        """
        merged = []
        for doc in spans:
            doc = dict(doc)
            if doc.get("parent") is None and parent_id is not None:
                doc["parent"] = parent_id
            merged.append(doc)
        with self._lock:
            self._finished.extend(merged)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)

    # -- internals -----------------------------------------------------------

    def _new_id(self) -> str:
        with self._lock:
            self._next_id += 1
            return f"{self._id_prefix}.{self._next_id:x}"

    def _push(self, span: Span) -> None:
        self._local.stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._local.stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:        # mismatched exits: recover
            stack.remove(span)

    def _store(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span.to_dict())


class _NoopTracer:
    """The disabled tracer: every operation is free and fruitless."""

    enabled = False
    sample_every = 1

    def span(self, name: str, cat: str = "span", sample: bool = False,
             **attrs):
        return _NULL_SPAN

    def begin(self, name: str, cat: str = "span",
              parent: Optional[str] = None, **attrs):
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def export(self) -> List[Dict]:
        return []

    def adopt(self, spans: List[Dict],
              parent_id: Optional[str] = None) -> None:
        pass

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


NOOP = _NoopTracer()

#: Process-wide current tracer.  A plain module global (not a
#: contextvar): tracing is enabled per process (CLI entry or worker
#: task), and a global read is the cheapest possible disabled check
#: for the Orchestrator's hot path.
_CURRENT = NOOP


def current_tracer():
    """The process's active tracer (:data:`NOOP` when disabled)."""
    return _CURRENT


def set_tracer(tracer) -> object:
    """Install ``tracer`` process-wide; returns the previous tracer
    so callers can restore it."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = tracer if tracer is not None else NOOP
    return previous


@dataclass(frozen=True)
class TraceSpec:
    """The picklable tracing request a scheduler sends its workers."""

    sample_every: int = 1

    def build(self) -> TraceContext:
        return TraceContext(sample_every=self.sample_every)


# -- structural checks (shared by tests, `repro stats --check`, CI) ----------

def span_index(spans: List[Dict]) -> Dict[str, Dict]:
    return {s["id"]: s for s in spans}

#: Tolerance for cross-process timestamp comparison: epoch clocks in
#: parent and child processes agree, but only to scheduler latency.
_CLOCK_SLACK_S = 0.25


def validate_spans(spans: List[Dict]) -> List[str]:
    """Structural invariants of one exported trace.

    Returns a list of human-readable violations (empty = valid):
    ids unique; every parent resolves; no parent cycles; children
    start within their parent's interval (modulo cross-process clock
    slack); required keys present.
    """
    problems: List[str] = []
    index: Dict[str, Dict] = {}
    for s in spans:
        for key in ("id", "name", "cat", "start", "dur", "pid", "tid",
                    "attrs", "events"):
            if key not in s:
                problems.append(f"span missing key {key!r}: {s!r}")
        sid = s.get("id")
        if sid in index:
            problems.append(f"duplicate span id {sid}")
        index[sid] = s
    for s in spans:
        parent = s.get("parent")
        if parent is None:
            continue
        p = index.get(parent)
        if p is None:
            problems.append(f"span {s['id']} ({s['name']}) has unknown "
                            f"parent {parent}")
            continue
        if s["start"] < p["start"] - _CLOCK_SLACK_S:
            problems.append(
                f"span {s['id']} ({s['name']}) starts before its "
                f"parent {parent} ({p['name']})")
        if (s["start"] + s["dur"]
                > p["start"] + p["dur"] + _CLOCK_SLACK_S):
            problems.append(
                f"span {s['id']} ({s['name']}) ends after its "
                f"parent {parent} ({p['name']})")
    # Cycle check: walk each span to a root with a visited set.
    for s in spans:
        seen = set()
        node = s
        while node is not None:
            if node["id"] in seen:
                problems.append(f"parent cycle through {node['id']}")
                break
            seen.add(node["id"])
            node = index.get(node.get("parent"))
    return problems
