"""Render a human-readable report from a JSONL trace.

Backs ``repro telemetry report``: per-cell timing tables,
deterministic kernel counters, top-k hotspot spans, shard-imbalance
flags, exhaustive-fold walks and store latency summaries — everything
a "why was this run slow" triage needs, from one file, offline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .schema import TraceSchemaError, validate_trace_lines

__all__ = ["TraceData", "load_trace", "render_report"]

IMBALANCE_FLAG = 1.5


@dataclass
class TraceData:
    """A parsed trace: the manifest plus the per-record views the
    report renders from."""

    manifest: dict
    tasks: list = field(default_factory=list)
    plans: list = field(default_factory=list)
    hits: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    events: list = field(default_factory=list)


def load_trace(path, validate: bool = True) -> TraceData:
    """Read a JSONL trace into a :class:`TraceData`.

    With ``validate`` (the default) the stream is schema-checked first,
    so a malformed trace fails loudly instead of rendering nonsense.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    if validate:
        manifest = validate_trace_lines(lines)
    else:
        manifest = None
    data = TraceData(manifest=manifest or {})
    for line in lines:
        if not line.strip():
            continue
        record = json.loads(line)
        kind = record.get("type")
        if kind == "task":
            data.tasks.append(record)
        elif kind == "plan":
            data.plans.append(record)
        elif kind == "store-hit":
            data.hits.append(record)
        elif kind == "span":
            data.spans.append(record)
        elif kind == "event":
            data.events.append(record)
        elif kind == "manifest" and manifest is None:
            data.manifest = record
    if not data.manifest:
        raise TraceSchemaError(f"{path}: no manifest record")
    return data


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _table(headers: list, rows: list) -> list:
    """Plain monospace columns (same idiom as the analysis tables)."""
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for j, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return lines


def _task_row(record: dict) -> list:
    """One per-cell row: identity from the task span's attrs,
    duration/metrics from the payload, counters from the kernel."""
    telemetry = record.get("telemetry") or {}
    attrs = {}
    for span in telemetry.get("spans", ()):
        if span.get("name") == "task":
            attrs = span.get("attrs", {})
            break
    kernel = record.get("kernel") or {}
    metrics = telemetry.get("metrics", {})
    explored = metrics.get("search.explored", {}).get("value", "-")
    probes = kernel.get("table_hits", 0) + kernel.get("table_misses", 0)
    hit_rate = f"{kernel['table_hits'] / probes:.2f}" if probes else "-"
    # A sharded cell merges in the parent, so no per-task tracer ever
    # wrapped it: identity lives in the plan line, not a task span.
    cell = "(merged in parent)"
    mode = "-"
    if attrs:
        cell = f"{attrs.get('protocol', '?')}/n={attrs.get('n', '?')}"
        mode = attrs.get("mode", "?")
    return [
        record["index"],
        cell,
        mode,
        _fmt_seconds(telemetry.get("duration")),
        kernel.get("steps", "-"),
        explored,
        hit_rate,
    ]


def _hotspots(trace: TraceData, top: int) -> list:
    """Top-k spans by total time, folded by name across tasks and the
    parent stream."""
    totals: dict = {}
    all_spans = list(trace.spans)
    for record in trace.tasks:
        all_spans.extend((record.get("telemetry") or {}).get("spans", ()))
    for span in all_spans:
        name = span["name"]
        total, count = totals.get(name, (0.0, 0))
        totals[name] = (total + span["duration"], count + 1)
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][0])[:top]
    return [
        [name, count, _fmt_seconds(total),
         _fmt_seconds(total / count if count else None)]
        for name, (total, count) in ranked
    ]


def _shard_lines(trace: TraceData) -> list:
    lines = []
    for record in trace.events:
        if record["name"] != "shard.lots":
            continue
        attrs = record["attrs"]
        imbalance = attrs.get("imbalance")
        flag = ""
        if isinstance(imbalance, (int, float)) and imbalance > IMBALANCE_FLAG:
            flag = "  <-- IMBALANCED"
        ratio = (
            f"{imbalance:.2f}" if isinstance(imbalance, (int, float)) else "?"
        )
        lines.append(
            f"  task {attrs.get('index', '?')}: {attrs.get('lots', '?')} "
            f"lots, max/mean weight {ratio}{flag}"
        )
    fallbacks = [r for r in trace.events if r["name"] == "shard.fallback"]
    for record in fallbacks:
        attrs = record["attrs"]
        lines.append(
            f"  task {attrs.get('index', '?')}: serial fallback "
            f"({attrs.get('reason', 'unknown')})"
        )
    return lines


def _fold_lines(trace: TraceData) -> list:
    """How exhaustive cells were folded: per-walk cell counts (a tree
    walk names the first quotient-DAG condition the cell failed) and
    the DAG's configuration and edge counters, sharded lots included."""
    walks: dict = {}
    for record in trace.tasks:
        for span in (record.get("telemetry") or {}).get("spans", ()):
            attrs = span.get("attrs", {})
            if span.get("name") != "fold" or "walk" not in attrs:
                continue
            label = attrs["walk"]
            if label != "dag":
                label = f"{label} ({attrs.get('reason', '?')})"
            walks[label] = walks.get(label, 0) + 1
    lines = []
    if walks:
        lines.append("  walks: " + ", ".join(
            f"{count} {label}" for label, count in sorted(walks.items())))
    metrics = trace.manifest.get("metrics", {})
    configurations = metrics.get("exhaustive.configurations", {}).get("value")
    if configurations is not None:
        edges = metrics.get("exhaustive.edges", {}).get("value", 0)
        lines.append(f"  quotient DAG: {configurations} configurations, "
                     f"{edges} edges")
    return lines


def _store_lines(manifest: dict) -> list:
    metrics = manifest.get("metrics", {})
    lines = []
    for name, label in (("store.get_seconds", "get"),
                        ("store.put_seconds", "put")):
        summary = metrics.get(name)
        if not summary or summary.get("type") != "histogram":
            continue
        count = summary.get("count", 0)
        mean = summary.get("mean")
        p95 = summary.get("p95")
        lines.append(
            f"  {label}: {count} ops, mean {_fmt_seconds(mean)}, "
            f"p95 {_fmt_seconds(p95)}"
        )
    hits = metrics.get("store.hits", {}).get("value")
    misses = metrics.get("store.misses", {}).get("value")
    if hits is not None or misses is not None:
        lines.append(
            f"  cache: {hits or 0} hits / {misses or 0} misses"
        )
    return lines


def render_report(trace: TraceData, top: int = 10) -> str:
    manifest = trace.manifest
    machine = manifest.get("machine", {})
    out = [
        f"trace {manifest.get('run_id', '?')}: "
        f"{manifest.get('command') or 'run'} "
        f"[{manifest.get('status', '?')}]",
        f"  machine: {machine.get('hostname', '?')} "
        f"({machine.get('platform', '?')}, "
        f"python {machine.get('python', '?')}, "
        f"{machine.get('cpu_count', '?')} cpus)",
        f"  wall: {_fmt_seconds(manifest.get('wall_seconds'))}, "
        f"tasks: {manifest.get('tasks', 0)} "
        f"({manifest.get('traced_tasks', 0)} traced, "
        f"{manifest.get('store_hits', 0)} store hits)",
    ]
    for plan in manifest.get("plans", ()):
        out.append(
            f"  plan: {plan.get('mode', '?')} x "
            f"{len(plan.get('protocols', ()))} protocols x "
            f"{len(plan.get('models', ()))} models "
            f"({plan.get('tasks', '?')} tasks, "
            f"spec {plan.get('spec_digest', '?')})"
        )
    kernel = manifest.get("kernel")
    if kernel:
        from .stats import KernelStats

        out.append(f"  kernel: {KernelStats.from_jsonable(kernel).summary()}")
    if trace.tasks:
        out.append("")
        out.append("per-cell timings:")
        rows = [_task_row(r) for r in sorted(trace.tasks,
                                             key=lambda r: r["index"])]
        out.extend(
            "  " + line for line in _table(
                ["index", "cell", "mode", "time", "steps", "explored",
                 "tbl-hit"],
                rows,
            )
        )
    shard = _shard_lines(trace)
    if shard:
        out.append("")
        out.append("sharding:")
        out.extend(shard)
    folds = _fold_lines(trace)
    if folds:
        out.append("")
        out.append("exhaustive folds:")
        out.extend(folds)
    hotspots = _hotspots(trace, top)
    if hotspots:
        out.append("")
        out.append(f"hotspots (top {len(hotspots)} spans by total time):")
        out.extend(
            "  " + line for line in _table(
                ["span", "count", "total", "mean"], hotspots,
            )
        )
    store = _store_lines(manifest)
    if store:
        out.append("")
        out.append("store latency:")
        out.extend(store)
    return "\n".join(out) + "\n"
