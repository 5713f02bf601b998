"""Per-task observation scope: the ``ExecutionTask.execute`` seam.

A :class:`TaskCollection` is the one object a task opens around its
cell.  It always watches transposition tables and search-context stats
(their counters are deterministic and cheap to snapshot), and — only
when :func:`~repro.telemetry.tracer.tracing_enabled` — hosts a per-task
:class:`~repro.telemetry.tracer.Tracer` whose frozen payload rides home
in ``TaskOutcome.telemetry``.  Workers never write shared files: the
collection's output is plain picklable data on the outcome, folded by
the parent exactly like reports.

``NULL_COLLECTION`` is the instrumentation-free reference path the
``telemetry_overhead_n6`` benchmark gate compares against.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

from .stats import KernelStats, _pop_watch, _push_watch
from .tracer import Tracer, _pop_active, _push_active, tracing_enabled

__all__ = ["TaskCollection", "NULL_COLLECTION"]


class TaskCollection:
    """Observation scope for one task execution (context manager)."""

    def __init__(self, task: Any) -> None:
        self.task = task
        self.tracer: Optional[Tracer] = (
            Tracer() if tracing_enabled() else None
        )
        self._contexts: list[Any] = []
        self._watch = None
        self._prev_watch = None
        self._prev_active = None
        self._span = None

    def __enter__(self) -> "TaskCollection":
        self._watch, self._prev_watch = _push_watch()
        if self.tracer is not None:
            self._prev_active = _push_active(self.tracer)
            task = self.task
            self._span = self.tracer.span(
                "task",
                index=task.index,
                mode=task.mode,
                protocol=task.protocol.name,
                model=task.model_name,
                n=task.graph.n,
                faults=task.faults,
            )
            self._span.__enter__()
        return self

    def __exit__(self, *exc_info) -> bool:
        if self._span is not None:
            self._span.__exit__(*exc_info)
        if self.tracer is not None:
            _pop_active(self._prev_active)
        _pop_watch(self._prev_watch)
        return False

    def observe_context(self, context) -> None:
        """Register a ``SearchContext`` whose cumulative stats the final
        snapshot folds (observation-only: the context is never read
        back into the search)."""
        if context is not None:
            self._contexts.append(context.stats)

    def finalize(self, outcome):
        """Attach the captured snapshot/payload to ``outcome``.

        Returns the *identical* object when nothing was observed, so
        cells that never touch the search kernel produce outcomes
        byte-equal to their pre-telemetry selves.
        """
        kernel = KernelStats.capture(
            self._contexts,
            self._watch.tables.values() if self._watch is not None else (),
        )
        telemetry = self.tracer.finish() if self.tracer is not None else None
        if kernel is None and telemetry is None:
            return outcome
        return replace(outcome, kernel_stats=kernel, telemetry=telemetry)


class _NullCollection:
    """The do-nothing collection: the pre-telemetry execute path.

    Exists so the overhead benchmark can run the same cell body with
    zero observation and gate the instrumented tracing-off path against
    it on the same machine.
    """

    __slots__ = ()
    tracer = None

    def __enter__(self) -> "_NullCollection":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def observe_context(self, context) -> None:
        pass

    def finalize(self, outcome):
        return outcome


NULL_COLLECTION = _NullCollection()
