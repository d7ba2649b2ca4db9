"""Per-module attribution: who resolved what, at what cost.

The paper's evaluation (Figures 8–10, Table 2) is an attribution
story — which analysis module resolved each dependence query, at what
precision, and at what latency.  This module rebuilds exactly those
tables from a trace: every Orchestrator query span carries its
contributor set, every module-evaluation child span carries the
module name, its result, whether it sharpened the join, and its
duration.

Time accounting uses *self time* (a module evaluation's duration
minus its child spans — premise recursion re-enters other modules,
whose time must not be double-billed), so the per-module seconds sum
to at most the traced analysis time and are directly comparable
across modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

__all__ = [
    "AttributionReport",
    "ModuleAttribution",
    "attribution_from_spans",
    "render_attribution",
]

#: Span categories emitted by the instrumented stack (kept in one
#: place so report code and instrumentation cannot drift apart).
CAT_QUERY = "query"
CAT_MODULE = "module_eval"
CAT_PREMISE = "premise"
CAT_LOOP = "loop"


@dataclass
class ModuleAttribution:
    """One analysis module's share of the traced run."""

    module: str
    evals: int = 0                 # module evaluations (span count)
    self_time_s: float = 0.0       # eval time minus premise recursion
    total_time_s: float = 0.0      # eval time including recursion
    improvements: int = 0          # evals that sharpened the join
    queries_resolved: int = 0      # queries listing it as contributor

    def to_dict(self) -> Dict:
        return {
            "module": self.module,
            "evals": self.evals,
            "self_time_s": self.self_time_s,
            "total_time_s": self.total_time_s,
            "improvements": self.improvements,
            "queries_resolved": self.queries_resolved,
        }


@dataclass
class AttributionReport:
    """The full attribution document derived from one trace."""

    modules: List[ModuleAttribution] = field(default_factory=list)
    queries: int = 0               # top-level query spans
    premises: int = 0              # premise-query spans
    loops: Dict[str, Dict] = field(default_factory=dict)
    query_time_s: float = 0.0      # sum of top-level query durations

    def to_dict(self) -> Dict:
        return {
            "queries": self.queries,
            "premises": self.premises,
            "query_time_s": self.query_time_s,
            "modules": [m.to_dict() for m in self.modules],
            "loops": dict(self.loops),
        }


def attribution_from_spans(spans: List[Mapping]) -> AttributionReport:
    """Fold an exported span list into an :class:`AttributionReport`.

    Works on the in-memory tracer's export and on spans re-read from
    a JSONL/Chrome-trace file alike, so a printed report can always be
    reconciled against the exported artifact.
    """
    children_dur: Dict[str, float] = {}
    for s in spans:
        parent = s.get("parent")
        if parent is not None:
            children_dur[parent] = (children_dur.get(parent, 0.0)
                                    + s["dur"])

    report = AttributionReport()
    modules: Dict[str, ModuleAttribution] = {}

    def module_row(name: str) -> ModuleAttribution:
        row = modules.get(name)
        if row is None:
            row = modules[name] = ModuleAttribution(module=name)
        return row

    for s in spans:
        cat = s.get("cat")
        attrs = s.get("attrs", {})
        if cat == CAT_MODULE:
            row = module_row(attrs.get("module", "?"))
            row.evals += 1
            row.total_time_s += s["dur"]
            row.self_time_s += max(
                0.0, s["dur"] - children_dur.get(s["id"], 0.0))
            if attrs.get("improved"):
                row.improvements += 1
        elif cat == CAT_QUERY:
            report.queries += 1
            report.query_time_s += s["dur"]
            for name in attrs.get("contributors", ()):
                module_row(name).queries_resolved += 1
        elif cat == CAT_PREMISE:
            report.premises += 1
        elif cat == CAT_LOOP:
            loop = attrs.get("loop", s.get("name", "?"))
            workload = attrs.get("workload", "?")
            doc = report.loops.setdefault(
                f"{workload}/{loop}",
                {"workload": workload, "loop": loop,
                 "time_s": 0.0, "count": 0})
            doc["time_s"] += s["dur"]
            doc["count"] += 1

    report.modules = sorted(modules.values(),
                            key=lambda m: (-m.self_time_s, m.module))
    return report


def render_attribution(report: AttributionReport,
                       title: Optional[str] = None) -> str:
    """The printable per-module attribution block (Figures 8–10's
    per-module "queries resolved / precision won / time spent")."""
    lines = [title or "per-module attribution",
             "-" * len(title or "per-module attribution")]
    lines.append(
        f"  {report.queries} queries ({report.premises} premise "
        f"queries), {report.query_time_s * 1e3:.2f}ms traced query "
        f"time")
    header = (f"  {'module':<22s} {'evals':>7s} {'resolved':>9s} "
              f"{'improved':>9s} {'self(ms)':>10s} {'total(ms)':>10s} "
              f"{'self%':>6s}")
    lines.append(header)
    total_self = sum(m.self_time_s for m in report.modules) or 1.0
    for m in report.modules:
        lines.append(
            f"  {m.module:<22s} {m.evals:>7d} "
            f"{m.queries_resolved:>9d} {m.improvements:>9d} "
            f"{m.self_time_s * 1e3:>10.2f} "
            f"{m.total_time_s * 1e3:>10.2f} "
            f"{100.0 * m.self_time_s / total_self:>5.1f}%")
    if report.loops:
        lines.append(f"  {'loop':<32s} {'analyses':>9s} "
                     f"{'time(ms)':>10s}")
        for key in sorted(report.loops):
            doc = report.loops[key]
            lines.append(f"  {key:<32s} {doc['count']:>9d} "
                         f"{doc['time_s'] * 1e3:>10.2f}")
    return "\n".join(lines)
