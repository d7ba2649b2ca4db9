"""``python -m repro stats``: summarize an exported trace offline.

Reads a trace file produced by ``analyze/batch --trace`` (either
export format), validates its structure, and prints the same
attribution report the traced run printed — the offline half of the
reconciliation story: the report is *recomputed from the artifact*,
so any divergence between the live numbers and the file is loud.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from .attribution import attribution_from_spans, render_attribution
from .export import load_trace
from .trace import validate_spans

__all__ = ["summarize_trace", "trace_document"]


def _category_summary(spans: List[Mapping]) -> Dict[str, Dict]:
    cats: Dict[str, Dict] = {}
    for s in spans:
        doc = cats.setdefault(s["cat"], {"count": 0, "time_s": 0.0})
        doc["count"] += 1
        doc["time_s"] += s["dur"]
    return cats


def _prepared_cache_summary(spans: List[Mapping]) -> Dict[str, int]:
    """Worker prepared-module cache traffic, recomputed from the
    ``loop_task`` spans (each is stamped prepared=hit/miss), so
    ``repro stats`` shows the hit rate from the artifact alone."""
    hits = misses = 0
    for s in spans:
        if s.get("cat") != "task":
            continue
        prepared = s.get("attrs", {}).get("prepared")
        if prepared == "hit":
            hits += 1
        elif prepared == "miss":
            misses += 1
    return {"hits": hits, "misses": misses}


def trace_document(path: str) -> Dict:
    """The machine-readable ``stats --json`` schema."""
    spans = load_trace(path)
    problems = validate_spans(spans)
    report = attribution_from_spans(spans)
    return {
        "file": path,
        "spans": len(spans),
        "processes": sorted({s["pid"] for s in spans}),
        "valid": not problems,
        "problems": problems,
        "categories": _category_summary(spans),
        "prepared_cache": _prepared_cache_summary(spans),
        "attribution": report.to_dict(),
    }


def summarize_trace(path: str) -> str:
    """The printable ``stats`` report for one trace file."""
    spans = load_trace(path)
    problems = validate_spans(spans)
    report = attribution_from_spans(spans)
    cats = _category_summary(spans)

    lines = [f"trace {path}",
             f"  {len(spans)} spans across "
             f"{len({s['pid'] for s in spans})} process(es)"]
    if problems:
        lines.append(f"  INVALID: {len(problems)} structural "
                     f"violation(s)")
        lines.extend(f"    {p}" for p in problems[:10])
    else:
        lines.append("  structure: valid (ids unique, parents "
                     "resolve, spans nest)")
    lines.append(f"  {'category':<14s} {'spans':>7s} {'time(ms)':>10s}")
    for cat in sorted(cats):
        doc = cats[cat]
        lines.append(f"  {cat:<14s} {doc['count']:>7d} "
                     f"{doc['time_s'] * 1e3:>10.2f}")
    prepared = _prepared_cache_summary(spans)
    total = prepared["hits"] + prepared["misses"]
    if total:
        rate = prepared["hits"] / total
        lines.append(f"  prepared-module cache: {prepared['hits']} hits"
                     f" / {prepared['misses']} misses"
                     f" (hit rate {rate:.1%})")
    lines.append("")
    lines.append(render_attribution(report))
    return "\n".join(lines)
