"""Intra-cell sharding: fan one heavy exhaustive task across workers.

The process backend's unit of distribution is normally the whole
:class:`~repro.runtime.plan.ExecutionTask` — fine for wide sweeps, but a
single heavy cell (one n! enumeration) would still run on one core.
This module lowers such a cell into *lots*: a bounded parent expansion
(:func:`expand_enumeration_units`) splits the schedule tree at a uniform
prefix depth, an LPT split (:func:`partition_weighted`) groups the
subtree prefixes into balanced lots, and each lot ships to a worker as
``(task, prefixes)``.  The worker (``ExecutionTask._execute_shard``)
walks the scalar engine below every prefix of its lot and folds each
leaf as it streams; the parent merges the per-prefix partial aggregates
in exact DFS unit order, so the merged :class:`TaskOutcome` is
field-identical to ``task.execute()``.  This cell-level lot sharding is
the only sharding in the package.

Sharding is a backend concern, like chunking: it adds no task attribute,
so campaign fingerprints cannot see it (a sharded cell is the same work)
and any failure — expansion error, worker error, merge surprise — falls
back to executing the task in the parent, the serial authority, which
raises or aggregates at exactly the right point.  Every fallback emits a
``shard.fallback`` trace event, so it cannot go unseen.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator, Sequence
from typing import Any, Optional, Union

from ..core.execution import ExecutionState
from ..core.models import ModelSpec
from ..core.protocol import Protocol
from ..faults.spec import FaultSpec, resolve_faults
from ..graphs.labeled_graph import LabeledGraph
from ..telemetry import tracer as _trace
from .results import TaskOutcome

__all__ = ["SHARD_MIN_N", "expand_enumeration_units", "partition_weighted",
           "shardable", "lower", "reassemble"]

#: Smallest instance worth splitting: below this the schedule tree is
#: cheaper to enumerate than to expand, partition, pickle and merge.
SHARD_MIN_N = 6


def shardable(task) -> bool:
    """Whether a task's cell can be split into schedule-prefix lots.

    Only exhaustive enumerations qualify: search / scheduler cells
    carry their parallelism inside the strategies.
    """
    return task.mode == "exhaustive" and task.graph.n >= SHARD_MIN_N


def expand_enumeration_units(
    graph: LabeledGraph,
    protocol: Protocol,
    model: ModelSpec,
    bit_budget: Optional[int],
    faults: Union[None, str, FaultSpec],
    min_prefixes: int,
    max_depth: int = 3,
) -> list:
    """Bounded scalar DFS expansion into an ordered *unit* list.

    Units appear in exact scalar DFS order: ``("result", RunResult)``
    for configurations that terminate above the frontier, and
    ``("prefix", schedule)`` for depth-``d`` subtree roots.  All
    prefixes share the one depth ``d`` — the smallest depth (iterative
    deepening up to ``max_depth``) whose frontier has at least
    ``min_prefixes`` subtrees.  Exceptions propagate raw; callers fall
    back to the serial authority, which raises identically.
    """
    for depth in range(1, max_depth + 1):
        units: list = []
        state = ExecutionState.initial(graph, protocol, model, bit_budget,
                                       faults=faults)

        def walk(remaining: int) -> None:
            if state.terminal:
                units.append(("result", state.result()))
                return
            if remaining == 0:
                units.append(("prefix", state.schedule))
                return
            for choice in state.candidates:
                checkpoint = state.depth
                state.advance(choice)
                walk(remaining - 1)
                state.restore(checkpoint)

        walk(depth)
        prefixes = sum(1 for kind, _ in units if kind == "prefix")
        if prefixes == 0 or prefixes >= min_prefixes or depth == max_depth:
            return units
    return units  # pragma: no cover - loop always returns


def _prefix_weights(prefixes, n: int,
                    faults: Union[None, str, FaultSpec]) -> list[float]:
    """LPT weights for same-depth subtree roots: the factorial of the
    remaining node count (every prefix event terminates one node, so
    remaining depth is uniform), scaled by the unspent fault budget."""
    spec = resolve_faults(faults)
    slack = 1.0 + (spec.max_crashes + spec.max_losses
                   + spec.max_duplications)
    return [math.factorial(min(n - len(p), 20)) * slack for p in prefixes]


def partition_weighted(weights: Sequence[float],
                       lots: int) -> list[list[int]]:
    """Split ``range(len(weights))`` into ``lots`` roughly equal-weight
    groups.

    Longest-processing-time greedy: items descending by weight (stable,
    so equal weights keep their index order — the deterministic
    tie-break), each assigned to the currently lightest lot (the lowest
    lot number among equally light ones).  Returns ascending index
    lists that partition the items; empty groups are dropped, so an
    empty input yields an empty list.
    """
    if not weights:
        return []
    lots = max(1, min(int(lots), len(weights)))
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    heap = [(0.0, slot) for slot in range(lots)]
    members: list[list[int]] = [[] for _ in range(lots)]
    for item in order:
        load, slot = heapq.heappop(heap)
        members[slot].append(item)
        heapq.heappush(heap, (load + weights[item], slot))
    return [sorted(group) for group in members if group]


def lower(tasks: Sequence[Any], jobs: int):
    """Lower tasks into a mixed work-item list plus a reassembly layout.

    Items are ``("task", task)`` (execute whole, unchanged) or
    ``("shard", (task, prefixes))`` (one lot of one cell).  The layout
    holds one entry per task: ``("task",)`` or ``("shard", units,
    lot_count)`` with the parent-side DFS unit list the merge walks.
    """
    items: list = []
    layout: list = []
    for task in tasks:
        units = None
        if shardable(task):
            try:
                units = expand_enumeration_units(
                    task.graph, task.protocol, task.model, task.bit_budget,
                    task.faults, min_prefixes=2 * jobs)
            except Exception:  # noqa: BLE001 - serial path raises it right
                units = None
        prefixes = ([payload for kind, payload in units if kind == "prefix"]
                    if units is not None else [])
        if len(prefixes) < 2:
            items.append(("task", task))
            layout.append(("task",))
            continue
        weights = _prefix_weights(prefixes, task.graph.n, task.faults)
        partition = partition_weighted(weights, jobs * 2)
        lots = [tuple(prefixes[i] for i in idx) for idx in partition]
        if _trace.active() is not None:
            lot_weights = [sum(weights[i] for i in idx) for idx in partition]
            mean = sum(lot_weights) / len(lot_weights)
            _trace.event(
                "shard.lots",
                index=task.index,
                lots=len(lots),
                prefixes=len(prefixes),
                max_weight=max(lot_weights),
                imbalance=(max(lot_weights) / mean) if mean else 0.0,
            )
        for lot in lots:
            items.append(("shard", (task, lot)))
        layout.append(("shard", units, len(lots)))
    return items, layout


def reassemble(tasks: Sequence[Any], layout: Sequence[Any],
               outputs) -> Iterator[TaskOutcome]:
    """Fold submission-ordered item outputs back into task outcomes.

    Items were laid out task-major, so each task's outputs arrive
    contiguously; sharded tasks merge their per-prefix partials in DFS
    unit order, and any lot error or merge failure re-runs the task
    serially in this process — the authority on results *and* on where
    exceptions surface.
    """
    it = iter(outputs)
    for task, entry in zip(tasks, layout):
        if entry[0] == "task":
            yield next(it)
            continue
        _, units, lot_count = entry
        partials: dict = {}
        failed = False
        for _ in range(lot_count):
            status, value = next(it)
            if status != "ok":
                failed = True
            elif not failed:
                partials.update(value)
        if failed:
            _trace.count("shard.fallbacks")
            _trace.event("shard.fallback", index=task.index,
                         reason="lot-error")
            yield task.execute()
            continue
        try:
            with _trace.span("shard.reassemble", index=task.index,
                             lots=lot_count):
                outcome = task._merge_shards(units, partials)
        except Exception:  # noqa: BLE001 - serial authority decides
            _trace.count("shard.fallbacks")
            _trace.event("shard.fallback", index=task.index,
                         reason="merge-error")
            outcome = task.execute()
        yield outcome
