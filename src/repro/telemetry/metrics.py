"""Counters and histograms for the run-telemetry subsystem.

A :class:`MetricsRegistry` is a name-addressed bag of metrics owned by
one :class:`~repro.telemetry.tracer.Tracer`.  Metrics are observation
accumulators, nothing more: no locks (the engine is single-threaded per
process), no global registry (a worker's metrics ride home inside its
``TaskOutcome``; the parent folds them), no export protocol beyond
``to_jsonable``.

This module is a leaf: stdlib only, importable from every layer.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "merge_metric_summaries",
]


class Counter:
    """Monotonic event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_jsonable(self) -> dict:
        return {"type": "counter", "value": self.value}


class Histogram:
    """Streaming distribution summary.

    ``count``/``total``/``min``/``max`` are exact for every observation;
    up to ``cap`` raw values are retained for percentile estimates, so
    memory stays bounded on million-observation runs (past the cap the
    percentiles describe the retained prefix, which is fine for the
    diagnostic use here).
    """

    __slots__ = ("count", "total", "min", "max", "cap", "_values")

    def __init__(self, cap: int = 4096) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.cap = cap
        self._values: list[float] = []

    def observe(self, value) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._values) < self.cap:
            self._values.append(value)

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def percentile(self, q: float) -> Optional[float]:
        if not self._values:
            return None
        ordered = sorted(self._values)
        pos = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[int(pos)]

    def to_jsonable(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
        }


class MetricsRegistry:
    """Name-addressed metric set; one per tracer.

    ``counter``/``histogram`` create on first use and
    type-check on every later one, so a name can never silently change
    meaning mid-run.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}

    def _named(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls()
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._named(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._named(name, Histogram)

    def get(self, name: str):
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def to_jsonable(self) -> dict:
        return {
            name: metric.to_jsonable()
            for name, metric in sorted(self._metrics.items())
        }


def merge_metric_summaries(into: dict, new: dict) -> dict:
    """Fold one jsonable metric summary into an accumulator in place
    (both shaped like :meth:`MetricsRegistry.to_jsonable` output).

    Counters sum; histograms combine count/total/min/max exactly and
    drop percentiles (a merged percentile would be a lie).  The run
    session uses this to aggregate per-task metric summaries into the
    manifest.
    """
    for name, summary in new.items():
        have = into.get(name)
        if have is None:
            merged = dict(summary)
            if merged.get("type") == "histogram":
                merged["p50"] = merged["p95"] = None
            into[name] = merged
            continue
        if have.get("type") != summary.get("type"):
            raise ValueError(f"metric {name!r} changed type across tasks")
        kind = summary.get("type")
        if kind == "counter":
            have["value"] += summary["value"]
        else:
            have["count"] += summary["count"]
            have["total"] += summary["total"]
            for key, pick in (("min", min), ("max", max)):
                values = [v for v in (have[key], summary[key])
                          if v is not None]
                have[key] = pick(values) if values else None
            have["mean"] = (
                have["total"] / have["count"] if have["count"] else None
            )
            have["p50"] = have["p95"] = None
    return into
