"""Hand-rolled trace/manifest validation (no external jsonschema dep).

Deliberately strict about *shape* — record types, required keys, value
types, cross-line consistency (task/hit counts must match the manifest)
— and deliberately loose about *values*: new metric names, span names
or span attributes must never break an old reader.  CI runs
:func:`validate_trace` over a real 2-job stress trace, so the published
shape and the emitter cannot drift apart.
"""

from __future__ import annotations

import json
from typing import Any, Optional

__all__ = [
    "TraceSchemaError",
    "validate_manifest",
    "validate_trace_lines",
    "validate_trace",
]

NUM = (int, float)


class TraceSchemaError(ValueError):
    """A trace file or manifest violates the published schema."""


def _require(record: dict, where: str, **fields) -> None:
    for key, types in fields.items():
        if key not in record:
            raise TraceSchemaError(
                f"{where}: {record.get('type', 'record')!s} missing {key!r}"
            )
        if not isinstance(record[key], types):
            names = (
                "/".join(t.__name__ for t in types)
                if isinstance(types, tuple) else types.__name__
            )
            raise TraceSchemaError(
                f"{where}: {key!r} should be {names}, "
                f"got {type(record[key]).__name__}"
            )


def _check_kernel(payload: Any, where: str) -> None:
    if payload is None:
        return
    if not isinstance(payload, dict):
        raise TraceSchemaError(f"{where}: kernel should be object or null")
    for key, value in payload.items():
        if not isinstance(value, int) or value < 0:
            raise TraceSchemaError(
                f"{where}: kernel[{key!r}] should be a non-negative int"
            )


def _check_span(payload: dict, where: str) -> None:
    _require(payload, where, name=str, start=NUM, duration=NUM, attrs=dict)


def _check_event(payload: dict, where: str) -> None:
    _require(payload, where, name=str, t=NUM, attrs=dict)


def _check_metrics(payload: Any, where: str) -> None:
    if not isinstance(payload, dict):
        raise TraceSchemaError(f"{where}: metrics should be an object")
    for name, summary in payload.items():
        if not isinstance(summary, dict) or "type" not in summary:
            raise TraceSchemaError(
                f"{where}: metric {name!r} should be a typed object"
            )
        kind = summary["type"]
        if kind == "counter":
            _require(summary, f"{where} metric {name!r}", value=NUM)
        elif kind == "histogram":
            _require(summary, f"{where} metric {name!r}", count=int,
                     total=NUM)
        else:
            raise TraceSchemaError(
                f"{where}: metric {name!r} has unknown type {kind!r}"
            )


def _check_telemetry(payload: dict, where: str) -> None:
    _require(payload, where, duration=NUM, spans=list, events=list,
             metrics=dict)
    for i, span in enumerate(payload["spans"]):
        if not isinstance(span, dict):
            raise TraceSchemaError(f"{where}: spans[{i}] should be object")
        _check_span(span, f"{where} spans[{i}]")
    for i, ev in enumerate(payload["events"]):
        if not isinstance(ev, dict):
            raise TraceSchemaError(f"{where}: events[{i}] should be object")
        _check_event(ev, f"{where} events[{i}]")
    _check_metrics(payload["metrics"], where)


def _check_plan(payload: dict, where: str) -> None:
    _require(payload, where, mode=str, protocols=list, models=list,
             tasks=int, spec_digest=str)


def validate_manifest(manifest: dict, where: str = "manifest") -> None:
    """Validate a manifest object (stream tail or sibling file)."""
    _require(
        manifest, where, schema=int, run_id=str, command=str, argv=list,
        status=str, started_at=NUM, finished_at=NUM, wall_seconds=NUM,
        machine=dict, plans=list, tasks=int, traced_tasks=int,
        store_hits=int, metrics=dict,
    )
    if manifest["schema"] != 1:
        raise TraceSchemaError(
            f"{where}: unsupported schema version {manifest['schema']!r}"
        )
    _require(manifest["machine"], f"{where} machine", python=str,
             platform=str, cpu_count=int)
    for i, plan in enumerate(manifest["plans"]):
        if not isinstance(plan, dict):
            raise TraceSchemaError(f"{where}: plans[{i}] should be object")
        _check_plan(plan, f"{where} plans[{i}]")
    _check_kernel(manifest.get("kernel"), where)
    _check_metrics(manifest["metrics"], where)


def validate_trace_lines(lines) -> dict:
    """Validate a JSONL event stream; returns the (validated) manifest.

    Checks per-line shape, stream framing (``run-start`` first,
    ``manifest`` last), ``run_id`` consistency, and that the manifest's
    task/traced/hit counts equal the stream's actual line counts.
    """
    records: list[dict] = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceSchemaError(f"line {line_no}: invalid JSON ({exc})")
        if not isinstance(record, dict) or not isinstance(
                record.get("type"), str):
            raise TraceSchemaError(
                f"line {line_no}: every record is an object with a "
                "string 'type'"
            )
        records.append(record)
    if not records:
        raise TraceSchemaError("empty trace: no records")
    if records[0]["type"] != "run-start":
        raise TraceSchemaError("first record must be 'run-start'")
    if records[-1]["type"] != "manifest":
        raise TraceSchemaError(
            "last record must be 'manifest' (incomplete trace?)"
        )
    start = records[0]
    _require(start, "line 1", schema=int, run_id=str, command=str,
             argv=list, started_at=NUM)
    tasks = traced = hits = 0
    for line_no, record in enumerate(records[1:-1], start=2):
        where = f"line {line_no}"
        kind = record["type"]
        if kind == "task":
            _require(record, where, index=int, received_at=NUM)
            if record["index"] < 0:
                raise TraceSchemaError(f"{where}: negative task index")
            _check_kernel(record.get("kernel"), where)
            if "telemetry" in record:
                if not isinstance(record["telemetry"], dict):
                    raise TraceSchemaError(
                        f"{where}: telemetry should be an object"
                    )
                _check_telemetry(record["telemetry"], where)
                traced += 1
            tasks += 1
        elif kind == "store-hit":
            _require(record, where, index=int, t=NUM)
            hits += 1
        elif kind == "plan":
            _check_plan(record, where)
        elif kind == "span":
            _check_span(record, where)
        elif kind == "event":
            _check_event(record, where)
        elif kind in ("run-start", "manifest"):
            raise TraceSchemaError(f"{where}: {kind!r} must frame the stream")
        else:
            raise TraceSchemaError(f"{where}: unknown record type {kind!r}")
    manifest = records[-1]
    validate_manifest(manifest, where=f"line {len(records)}")
    if manifest["run_id"] != start["run_id"]:
        raise TraceSchemaError("manifest run_id differs from run-start")
    for key, actual in (("tasks", tasks), ("traced_tasks", traced),
                        ("store_hits", hits)):
        if manifest[key] != actual:
            raise TraceSchemaError(
                f"manifest says {key}={manifest[key]}, stream has {actual}"
            )
    return manifest


def validate_trace(path) -> dict:
    """Validate the JSONL trace at ``path``; returns its manifest.

    If a sibling ``*.manifest.json`` exists it must validate too and
    carry the same ``run_id``.
    """
    import os

    with open(path, encoding="utf-8") as fh:
        manifest = validate_trace_lines(fh)
    root, ext = os.path.splitext(str(path))
    sibling = (root if ext else str(path)) + ".manifest.json"
    if os.path.exists(sibling):
        with open(sibling, encoding="utf-8") as fh:
            try:
                side = json.load(fh)
            except json.JSONDecodeError as exc:
                raise TraceSchemaError(f"{sibling}: invalid JSON ({exc})")
        validate_manifest(side, where=sibling)
        if side["run_id"] != manifest["run_id"]:
            raise TraceSchemaError(
                f"{sibling}: run_id differs from the event stream"
            )
    return manifest
