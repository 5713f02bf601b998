"""The parent-side run session: JSONL event stream + run manifest.

Only the driving process writes telemetry files.  Workers ship their
payloads home inside ``TaskOutcome`` (mirroring the campaign rule that
the store is the only shared state), and the :class:`RunTelemetry`
session serializes them as they stream out of the backend:

* ``run-start`` line, then one ``plan`` line per lowered plan;
* one ``task`` line per outcome (arrival offset, deterministic kernel
  snapshot, tracing payload when present) and one ``store-hit`` line
  per cache-served cell;
* at :meth:`finish`, the parent tracer's own ``span``/``event`` lines
  (store latencies, shard lowering/reassembly) and a final ``manifest``
  line — machine metadata, plan spec digests, folded metric summaries —
  also mirrored to a sibling ``*.manifest.json``.

Opening a session turns tracing on for this process and future workers
(:func:`~repro.telemetry.tracer.set_tracing`); closing restores the
previous setting.  Everything is observation-only: the session wraps
sinks (:class:`TelemetrySink`) without touching what flows through
them, so merged reports are byte-identical with or without a session.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import time
import uuid
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from .metrics import merge_metric_summaries
from .stats import KernelStats
from .tracer import Tracer, activated, set_tracing, tracing_enabled

__all__ = [
    "SCHEMA_VERSION",
    "RunTelemetry",
    "TelemetrySink",
    "machine_metadata",
    "plan_spec_digest",
]

SCHEMA_VERSION = 1


def machine_metadata() -> dict:
    """Where this run happened: enough to interpret its timings."""
    counter = getattr(os, "process_cpu_count", None) or os.cpu_count
    meta = {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": counter() or 1,
    }
    try:  # the installed version, read without importing numpy
        from importlib.metadata import version

        meta["numpy"] = version("numpy")
    except Exception:  # noqa: BLE001 - numpy is optional at runtime
        meta["numpy"] = None
    return meta


def plan_spec_digest(plan) -> str:
    """A short digest tying a trace to the exact durable work identity.

    Hashes the plan's task fingerprints (which already fold every cell
    spec and the code-version salt), so two traces with equal digests
    describe byte-identical work.  Falls back to a structural digest if
    fingerprinting fails (e.g. an unpicklable ad-hoc checker).
    """
    import hashlib

    try:
        from ..campaigns.store import task_fingerprint

        material = [task_fingerprint(task) for task in plan.tasks]
    except Exception:  # noqa: BLE001 - digest must never fail a run
        material = [repr((plan.mode, plan.protocol_names,
                          plan.model_names, len(plan.tasks)))]
    return hashlib.sha256("\n".join(material).encode()).hexdigest()[:16]


class RunTelemetry:
    """One run's telemetry session (driving process only)."""

    def __init__(self, path, *, command: str = "",
                 argv: Optional[list] = None) -> None:
        self.path = str(path)
        self.run_id = uuid.uuid4().hex[:12]
        self.command = command
        self.argv = list(argv) if argv is not None else []
        self.tracer = Tracer()
        self.kernel = KernelStats()
        self.task_metrics: dict = {}
        self.tasks = 0
        self.traced_tasks = 0
        self.store_hits = 0
        self.plans: list[dict] = []
        self._started_at = time.time()
        self._manifest: Optional[dict] = None
        self._was_enabled = tracing_enabled()
        self._fh = open(self.path, "w", encoding="utf-8")
        set_tracing(True)
        self._emit({
            "type": "run-start",
            "schema": SCHEMA_VERSION,
            "run_id": self.run_id,
            "command": self.command,
            "argv": self.argv,
            "started_at": self._started_at,
        })

    # -- event stream --------------------------------------------------

    def _emit(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def add_plan(self, plan) -> None:
        entry = {
            "mode": plan.mode,
            "protocols": list(plan.protocol_names),
            "models": list(plan.model_names),
            "tasks": len(plan.tasks),
            "spec_digest": plan_spec_digest(plan),
        }
        self.plans.append(entry)
        self._emit({"type": "plan", **entry})

    def record_outcome(self, outcome) -> None:
        """One ``task`` line per outcome, the moment the parent has it
        (``received_at`` offsets expose queue/reassembly gaps per task
        index without workers ever timing each other)."""
        self.tasks += 1
        record = {
            "type": "task",
            "index": outcome.index,
            "received_at": self.tracer.now(),
        }
        kernel = getattr(outcome, "kernel_stats", None)
        if kernel is not None:
            self.kernel = self.kernel.merge(kernel)
            record["kernel"] = kernel.to_jsonable()
        telemetry = getattr(outcome, "telemetry", None)
        if telemetry is not None:
            self.traced_tasks += 1
            record["telemetry"] = telemetry.to_jsonable()
            merge_metric_summaries(self.task_metrics, telemetry.metrics)
        self._emit(record)

    def record_hit(self, index: int,
                   fingerprint: Optional[str] = None) -> None:
        self.store_hits += 1
        record = {"type": "store-hit", "index": index,
                  "t": self.tracer.now()}
        if fingerprint is not None:
            record["fingerprint"] = fingerprint[:12]
        self._emit(record)

    # -- integration seams --------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["RunTelemetry"]:
        """Install the session's parent tracer for the block, so
        driving-process instrumentation (store latencies, shard
        lowering/reassembly) lands in the run stream.  Per-task tracers
        nest inside and restore it on exit."""
        with activated(self.tracer):
            yield self

    def sink(self, inner) -> "TelemetrySink":
        """Wrap a result sink so every outcome is recorded after the
        inner sink (i.e. after any store commit) accepts it."""
        return TelemetrySink(self, inner)

    # -- manifest ------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        root, ext = os.path.splitext(self.path)
        return (root if ext else self.path) + ".manifest.json"

    def _build_manifest(self, status: str) -> dict:
        metrics = dict(self.task_metrics)
        merge_metric_summaries(metrics, self.tracer.metrics.to_jsonable())
        return {
            "schema": SCHEMA_VERSION,
            "run_id": self.run_id,
            "command": self.command,
            "argv": self.argv,
            "status": status,
            "started_at": self._started_at,
            "finished_at": time.time(),
            "wall_seconds": self.tracer.now(),
            "machine": machine_metadata(),
            "plans": list(self.plans),
            "tasks": self.tasks,
            "traced_tasks": self.traced_tasks,
            "store_hits": self.store_hits,
            "kernel": self.kernel.to_jsonable() if self.kernel else None,
            "metrics": metrics,
        }

    def finish(self, status: str = "ok") -> dict:
        """Flush parent spans/events, write the manifest (stream tail +
        sibling file), close, and restore the tracing flag.  Idempotent:
        later calls return the same manifest."""
        if self._manifest is not None:
            return self._manifest
        for record in self.tracer.spans:
            self._emit({"type": "span", **record.to_jsonable()})
        for name, t, attrs in self.tracer.events:
            self._emit({"type": "event", "name": name, "t": t,
                        "attrs": attrs})
        manifest = self._build_manifest(status)
        self._emit({"type": "manifest", **manifest})
        self._fh.close()
        with open(self.manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if not self._was_enabled:
            set_tracing(False)
        self._manifest = manifest
        return manifest

    def __enter__(self) -> "RunTelemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish("ok" if exc_type is None else "error")
        return False


class TelemetrySink:
    """Duck-typed ``ResultSink`` wrapper: delegate first (so a store
    commit is durable before its trace line exists), then record."""

    def __init__(self, session: RunTelemetry, inner: Any) -> None:
        self.session = session
        self.inner = inner

    def add(self, outcome) -> None:
        self.inner.add(outcome)
        self.session.record_outcome(outcome)

    def result(self) -> Any:
        return self.inner.result()
