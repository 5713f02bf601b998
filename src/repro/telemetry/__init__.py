"""Run telemetry: spans, metrics, kernel snapshots and run manifests.

Observation-only by construction — the invariant every consumer relies
on is that enabling tracing cannot change what the engine computes:

* enablement is an environment flag (``REPRO_TRACE``), never a task
  attribute, so campaign fingerprints are blind to it;
* workers never write shared files — per-task payloads ride inside
  ``TaskOutcome`` and fold through the existing sink/merge seam, and
  only the parent's :class:`RunTelemetry` session serializes the JSONL
  event stream and run manifest;
* deterministic counters (:class:`KernelStats`) are split from timing
  (:class:`TaskTelemetry`): the former are captured always and equal
  the engine's own ``SearchStats``/table accounting field for field,
  the latter exist only while tracing.

This package is a leaf: stdlib at module level, engine imports only
lazily inside functions, so every layer can import it cycle-free.
"""

from .collect import NULL_COLLECTION, TaskCollection
from .metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    merge_metric_summaries,
)
from .report import TraceData, load_trace, render_report
from .schema import (
    TraceSchemaError,
    validate_manifest,
    validate_trace,
    validate_trace_lines,
)
from .session import (
    SCHEMA_VERSION,
    RunTelemetry,
    TelemetrySink,
    machine_metadata,
    plan_spec_digest,
)
from .stats import (
    KernelAccumulator,
    KernelStats,
    observe_table,
    watching_tables,
)
from .tracer import (
    NULL_SPAN,
    TRACE_ENV,
    Span,
    SpanRecord,
    TaskTelemetry,
    Tracer,
    activated,
    active,
    count,
    event,
    observe,
    set_tracing,
    span,
    tracing_enabled,
)

__all__ = [
    "TRACE_ENV",
    "SCHEMA_VERSION",
    "tracing_enabled",
    "set_tracing",
    "active",
    "activated",
    "span",
    "event",
    "count",
    "observe",
    "Span",
    "NULL_SPAN",
    "SpanRecord",
    "Tracer",
    "TaskTelemetry",
    "TaskCollection",
    "NULL_COLLECTION",
    "KernelStats",
    "KernelAccumulator",
    "observe_table",
    "watching_tables",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "merge_metric_summaries",
    "RunTelemetry",
    "TelemetrySink",
    "machine_metadata",
    "plan_spec_digest",
    "TraceSchemaError",
    "validate_manifest",
    "validate_trace",
    "validate_trace_lines",
    "TraceData",
    "load_trace",
    "render_report",
]
