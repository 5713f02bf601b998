"""Execution backends: where a plan's tasks actually run.

A :class:`Backend` turns an ordered sequence of work items into an
ordered sequence of results.  Two implementations:

* :class:`SerialBackend` — in-process loop; accepts anything callable
  and is the default everywhere (closures and lambdas welcome).
* :class:`ProcessPoolBackend` — shards the item list into contiguous
  chunks and fans them across a ``ProcessPoolExecutor``.  Chunking
  amortises pickling and process round-trips over many small cells
  (one future per chunk, not per cell); results are re-assembled into
  submission order no matter which worker finishes first, so the output
  is deterministic and field-identical to the serial backend.  Work
  functions and items must be picklable — module-level callables, the
  checker classes in :mod:`repro.analysis.checkers`, and every
  :class:`~repro.runtime.plan.ExecutionTask` qualify.

The generic :meth:`Backend.map` is intentionally plan-agnostic: the
experiment registry fans E1–E18 runners through the same machinery that
runs verification cells.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Optional, TypeVar

from .results import TaskOutcome

__all__ = ["Backend", "SerialBackend", "ProcessPoolBackend", "resolve_backend"]

T = TypeVar("T")
R = TypeVar("R")


def _default_jobs() -> int:
    """Worker count when ``jobs`` is unset: the number of CPUs this
    *process* may use (``os.process_cpu_count``, Python >= 3.13, respects
    affinity masks), falling back to ``os.cpu_count`` and then 1."""
    counter = getattr(os, "process_cpu_count", None) or os.cpu_count
    return counter() or 1


def _annotate_failure(exc: BaseException, task) -> None:
    """Attach which-cell context to a worker exception before it travels
    home.  Notes survive pickling and keep the exception type intact
    (callers match on the type); the fingerprint prefix is computed
    lazily — only on this error path — and never lets annotation itself
    raise.  ``add_note`` is 3.11+, so older interpreters just skip it.
    """
    if not hasattr(exc, "add_note"):
        return
    note = (
        f"while executing task index={task.index} "
        f"protocol={task.protocol.name!r} n={task.graph.n} "
        f"mode={task.mode!r}"
    )
    try:
        from ..campaigns.store import task_fingerprint

        note += f" fingerprint={task_fingerprint(task)[:12]}"
    except Exception:  # noqa: BLE001 - context must not mask the error
        pass
    exc.add_note(note)


def _execute_task(task) -> TaskOutcome:
    """Run one plan task (top-level so process backends can pickle it)."""
    try:
        return task.execute()
    except Exception as exc:
        _annotate_failure(exc, task)
        raise


def _execute_item(item):
    """Run one lowered work item (see :mod:`repro.runtime.sharding`).

    Plain tasks execute whole and raise like the serial backend; shard
    items return ``("ok", partials)`` / ``("error", msg)`` markers so
    the parent can discard a failed lot and re-run the cell serially —
    exceptions must surface from the authority, not a worker.
    """
    kind, payload = item
    if kind == "task":
        return _execute_task(payload)
    task, prefixes = payload
    try:
        return ("ok", task._execute_shard(prefixes))
    except Exception as exc:  # noqa: BLE001 - marker, parent re-raises
        return ("error", f"{type(exc).__name__}: {exc}")


def _apply_chunk(fn: Callable[[T], R], chunk: list[T]) -> list[R]:
    """Worker entry point: apply ``fn`` to one shard of items."""
    return [fn(item) for item in chunk]


class Backend:
    """Strategy interface: ordered map over work items."""

    name: str = "backend"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
        """Yield ``fn(item)`` for every item, in submission order."""
        raise NotImplementedError

    def run(self, tasks: Sequence[Any]) -> Iterator[TaskOutcome]:
        """Execute plan tasks; outcomes stream back in task order."""
        return self.map(_execute_task, tasks)


class SerialBackend(Backend):
    """Run everything in the calling process, one item at a time."""

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
        for item in items:
            yield fn(item)


class ProcessPoolBackend(Backend):
    """Chunk-sharded fan-out over a :class:`ProcessPoolExecutor`.

    Parameters
    ----------
    jobs:
        Worker processes (default: CPUs available to this process).
    chunk_size:
        Items per shard.  Default targets four shards per worker, which
        keeps the pool busy under uneven cell costs while bounding
        per-future pickle overhead.
    """

    name = "process-pool"

    def __init__(self, jobs: Optional[int] = None,
                 chunk_size: Optional[int] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.jobs = jobs
        self.chunk_size = chunk_size

    def run(self, tasks: Sequence[Any]) -> Iterator[TaskOutcome]:
        """Execute plan tasks, sharding heavy exhaustive cells.

        Tasks are lowered into a mixed item list (whole tasks plus
        schedule-prefix lots of shardable cells — see
        :mod:`repro.runtime.sharding`), fanned through the ordinary
        chunked :meth:`map`, and reassembled in task order.  When no
        cell qualifies this is exactly the task-per-item path.
        """
        from .sharding import lower, reassemble

        jobs = self.jobs or _default_jobs()
        if jobs < 2:
            return super().run(tasks)
        tasks = list(tasks)
        items, layout = lower(tasks, jobs)
        if all(entry[0] == "task" for entry in layout):
            return super().run(tasks)
        return reassemble(tasks, layout, self.map(_execute_item, items))

    def _shards(self, items: list[T], jobs: int) -> list[list[T]]:
        size = self.chunk_size or max(1, math.ceil(len(items) / (jobs * 4)))
        return [items[i:i + size] for i in range(0, len(items), size)]

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
        items = list(items)
        if not items:
            return
        jobs = self.jobs or _default_jobs()
        shards = self._shards(items, jobs)
        with ProcessPoolExecutor(max_workers=min(jobs, len(shards))) as pool:
            futures = {
                pool.submit(_apply_chunk, fn, shard): i
                for i, shard in enumerate(shards)
            }
            # Drain completions into a reorder buffer and emit the longest
            # ready prefix: output order == submission order, always.
            ready: dict[int, list[R]] = {}
            next_shard = 0
            for arrived, future in enumerate(as_completed(futures), 1):
                ready[futures[future]] = future.result()
                if arrived == len(shards):
                    break
                while next_shard in ready:
                    yield from ready.pop(next_shard)
                    next_shard += 1
        # Every shard has arrived and the pool is shut down before the
        # tail is emitted: a consumer that reads exactly the items it
        # submitted never resumes this generator after the last one, so
        # the workers are reaped inside its wait for that item rather
        # than whenever it drops the generator.
        while next_shard < len(shards):
            yield from ready.pop(next_shard)
            next_shard += 1


def resolve_backend(jobs: Optional[int] = None,
                    chunk_size: Optional[int] = None) -> Backend:
    """The conventional ``--jobs`` mapping: ``None``/``1`` stays serial,
    anything larger fans out across processes (``chunk_size`` then passes
    through — use 1 for coarse, uneven tasks like whole experiments)."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs is None or jobs == 1:
        return SerialBackend()
    return ProcessPoolBackend(jobs=jobs, chunk_size=chunk_size)
