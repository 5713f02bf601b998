"""Zero-overhead-when-off tracing: spans, events, the active tracer.

The observation-only contract every instrumentation site in the engine
relies on:

* :func:`active` is a single module-global read.  Hot paths guard on
  ``active() is None`` (or call the module-level :func:`span` /
  :func:`count` / :func:`observe` helpers, which do the guard), so an
  untraced run pays one ``is None`` check per instrumented operation
  and allocates nothing.
* Enablement rides the ``REPRO_TRACE`` environment variable — *not* a
  task attribute — so campaign fingerprints cannot see it and worker
  processes inherit it through the pool environment (the parent flips
  the flag before the pool exists).
* Tracers observe; nothing in the engine ever reads a value back out
  of one.  Timing data is nondeterministic by nature, which is why a
  task's :class:`TaskTelemetry` rides *beside* its report in the
  ``TaskOutcome``, never inside it.

Leaf module: stdlib plus :mod:`repro.telemetry.metrics` only.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from .metrics import MetricsRegistry

__all__ = [
    "TRACE_ENV",
    "tracing_enabled",
    "set_tracing",
    "SpanRecord",
    "Span",
    "Tracer",
    "TaskTelemetry",
    "active",
    "activated",
    "span",
    "event",
    "count",
    "observe",
]

TRACE_ENV = "REPRO_TRACE"
_TRUTHY = frozenset({"1", "true", "yes", "on"})

_enabled: Optional[bool] = None


def tracing_enabled() -> bool:
    """Whether this process should collect per-task telemetry.

    The environment decision is cached after the first read; worker
    processes inherit the variable and decide identically.
    """
    global _enabled
    if _enabled is None:
        _enabled = os.environ.get(TRACE_ENV, "").strip().lower() in _TRUTHY
    return _enabled


def set_tracing(on: bool) -> None:
    """Flip tracing for this process *and* future workers.

    Pools are created after the flag is set (inside ``Backend.map`` at
    call time), so the exported environment variable is what makes the
    flag travel — no task attribute, no fingerprint change.
    """
    global _enabled
    _enabled = bool(on)
    if on:
        os.environ[TRACE_ENV] = "1"
    else:
        os.environ.pop(TRACE_ENV, None)


def _reset_tracing() -> None:
    """Forget the cached environment decision (tests only)."""
    global _enabled
    _enabled = None


@dataclass(frozen=True)
class SpanRecord:
    """One finished span; offsets are seconds since the tracer origin."""

    name: str
    start: float
    duration: float
    attrs: tuple[tuple[str, Any], ...] = ()

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "SpanRecord":
        return cls(
            data["name"], data["start"], data["duration"],
            tuple(data.get("attrs", {}).items()),
        )


class Span:
    """Live span handle (context manager); :meth:`set` adds attributes
    discovered mid-span (result sizes, verdicts)."""

    __slots__ = ("_tracer", "name", "_attrs", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self._attrs = attrs
        self._t0 = 0.0

    def set(self, key: str, value) -> None:
        self._attrs[key] = value

    def __enter__(self) -> "Span":
        self._t0 = self._tracer._clock()
        return self

    def __exit__(self, *exc_info) -> bool:
        tracer = self._tracer
        now = tracer._clock()
        tracer.spans.append(SpanRecord(
            self.name, self._t0 - tracer.origin, now - self._t0,
            tuple(self._attrs.items()),
        ))
        return False


class _NullSpan:
    """The off-path span: enters, sets, exits; allocates nothing."""

    __slots__ = ()

    def set(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """One scope's collection of spans, events and metrics — a run's
    (parent side) or a single task's (worker side)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.origin = clock()
        self.spans: list[SpanRecord] = []
        self.events: list[tuple[str, float, dict]] = []
        self.metrics = MetricsRegistry()

    def now(self) -> float:
        """Seconds since this tracer was created."""
        return self._clock() - self.origin

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        self.events.append((name, self.now(), attrs))

    def count(self, name: str, n: int = 1) -> None:
        self.metrics.counter(name).inc(n)

    def observe(self, name: str, value) -> None:
        self.metrics.histogram(name).observe(value)

    def finish(self) -> "TaskTelemetry":
        """Freeze everything collected into a picklable payload."""
        return TaskTelemetry(
            duration=self.now(),
            spans=tuple(self.spans),
            events=tuple((n, t, dict(a)) for n, t, a in self.events),
            metrics=self.metrics.to_jsonable(),
        )


_active: Optional[Tracer] = None


def active() -> Optional[Tracer]:
    """The tracer observing this process right now, or ``None`` — the
    one global read every instrumentation guard performs."""
    return _active


def _push_active(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer``; returns the previous one for :func:`_pop_active`."""
    global _active
    previous = _active
    _active = tracer
    return previous


def _pop_active(previous: Optional[Tracer]) -> None:
    global _active
    _active = previous


@contextmanager
def activated(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Install ``tracer`` as the active one for the block.

    Stack-like: the previous tracer is restored on exit, so a per-task
    tracer nests cleanly inside a run-level (parent) tracer.
    """
    previous = _push_active(tracer)
    try:
        yield tracer
    finally:
        _pop_active(previous)


def span(name: str, **attrs):
    """A span on the active tracer, or the shared no-op span."""
    tracer = _active
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def event(name: str, **attrs) -> None:
    tracer = _active
    if tracer is not None:
        tracer.event(name, **attrs)


def count(name: str, n: int = 1) -> None:
    tracer = _active
    if tracer is not None:
        tracer.count(name, n)


def observe(name: str, value) -> None:
    tracer = _active
    if tracer is not None:
        tracer.observe(name, value)


@dataclass(frozen=True)
class TaskTelemetry:
    """Tracing payload one task ships home inside its ``TaskOutcome``.

    Plain picklable data (tuples, dicts, floats).  Timing-bearing and
    therefore nondeterministic — which is why it lives *beside* the
    report, never inside it, and why no equality-pinned path compares
    it: with tracing off the field is simply ``None``.
    """

    duration: float
    spans: tuple[SpanRecord, ...]
    events: tuple[tuple[str, float, dict], ...]
    metrics: dict

    def to_jsonable(self) -> dict:
        return {
            "duration": self.duration,
            "spans": [s.to_jsonable() for s in self.spans],
            "events": [
                {"name": n, "t": t, "attrs": a} for n, t, a in self.events
            ],
            "metrics": self.metrics,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "TaskTelemetry":
        return cls(
            duration=data["duration"],
            spans=tuple(SpanRecord.from_jsonable(s) for s in data["spans"]),
            events=tuple(
                (e["name"], e["t"], dict(e["attrs"])) for e in data["events"]
            ),
            metrics=dict(data["metrics"]),
        )
