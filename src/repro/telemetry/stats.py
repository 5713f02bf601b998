"""Deterministic kernel statistics: metrics that must equal the
engine's own accounting.

Unlike spans (timing — nondeterministic by nature), a
:class:`KernelStats` snapshot is a pure function of the work a cell
did: write-event steps, searches, restarts, transposition-table
counters.  Tasks capture one *always* — traced or not — so the numbers
are identical across serial/process backends and traced/untraced runs,
and tests pin them field for field against the engine's live
``SearchStats`` / ``TranspositionTable`` counters.

A cell's only transposition table is the one on its
``SearchContext``, so the task's collection scope reads the table off
the context it already observes.

Leaf module: stdlib only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Optional

__all__ = [
    "KernelStats",
    "KernelAccumulator",
]


@dataclass(frozen=True)
class KernelStats:
    """Frozen fold of a cell's deterministic search-kernel counters.

    ``steps``/``searches``/``restarts`` mirror
    :class:`repro.adversaries.kernel.SearchStats`; the ``table_*``
    fields sum the counters of every transposition table the cell
    bound.  All sums, so :meth:`merge` is associative and a campaign
    can fold thousands of cells into one line.
    """

    steps: int = 0
    searches: int = 0
    restarts: int = 0
    table_hits: int = 0
    table_misses: int = 0
    table_stores: int = 0
    table_entries: int = 0
    tables: int = 0
    frontier_hits: int = 0
    frontier_stores: int = 0

    @property
    def batch_occupancy(self) -> float:
        """Always 0.0: the batched beam core is gone.  Kept read-only
        for the benchmark ledger, which still reports the
        ``core.batch.occupancy`` metric until that metric is retired."""
        return 0.0

    @property
    def bound_prunes(self) -> int:
        """Always 0: branch-and-bound no longer prunes on bounds.  Kept
        read-only for the benchmark ledger, which still reports the
        ``adversaries.bound_prunes`` metric until that metric is
        retired."""
        return 0

    @property
    def table_probes(self) -> int:
        return self.table_hits + self.table_misses

    @property
    def table_hit_rate(self) -> float:
        probes = self.table_probes
        return self.table_hits / probes if probes else 0.0

    def _astuple(self) -> tuple:
        return (
            self.steps, self.searches, self.restarts, self.table_hits,
            self.table_misses, self.table_stores, self.table_entries,
            self.tables, self.frontier_hits, self.frontier_stores,
        )

    def __bool__(self) -> bool:
        return any(self._astuple())

    def merge(self, other: "KernelStats") -> "KernelStats":
        return KernelStats(
            *(a + b for a, b in zip(self._astuple(), other._astuple()))
        )

    def to_jsonable(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_jsonable(cls, data: dict) -> "KernelStats":
        names = {f.name for f in fields(cls)}
        return cls(**{k: int(v) for k, v in data.items() if k in names})

    @classmethod
    def capture(cls, stats_list: Iterable,
                tables: Iterable) -> "Optional[KernelStats]":
        """Fold live accounting objects (duck-typed ``SearchStats`` and
        transposition tables) into a snapshot; ``None`` when the cell
        observed nothing, so outcome kinds that never touched the
        search kernel stay equal to their pre-telemetry selves.  Tables
        are deduplicated by identity: one table shared by several
        contexts counts once."""
        total = cls()
        for stats in stats_list:
            total = total.merge(cls(
                steps=stats.steps,
                searches=stats.searches,
                restarts=stats.restarts,
            ))
        for table in {id(table): table for table in tables}.values():
            total = total.merge(cls(
                table_hits=table.hits,
                table_misses=table.misses,
                table_stores=table.stores,
                table_entries=len(table),
                tables=1,
                frontier_hits=table.frontier_hits,
                frontier_stores=table.frontier_stores,
            ))
        return total if total else None

    def summary(self) -> str:
        """The end-of-run kernel line (stress / campaign summaries)."""
        parts = [f"{self.steps} steps", f"{self.searches} searches"]
        if self.restarts:
            parts.append(f"{self.restarts} restarts")
        if self.tables:
            parts.append(
                f"table hit-rate {self.table_hit_rate:.2f} "
                f"({self.table_probes} probes, "
                f"{self.table_entries} entries)"
            )
        if self.frontier_hits or self.frontier_stores:
            parts.append(
                f"frontiers {self.frontier_hits} hits / "
                f"{self.frontier_stores} stores"
            )
        return ", ".join(parts)


class KernelAccumulator:
    """Mutable driving-process fold of per-task :class:`KernelStats`
    (CLI end-of-run summaries, campaign meta persistence)."""

    def __init__(self) -> None:
        self.kernel: Optional[KernelStats] = None
        self.outcomes = 0

    def add(self, stats: Optional[KernelStats]) -> None:
        if stats is None:
            return
        self.outcomes += 1
        self.kernel = (
            stats if self.kernel is None else self.kernel.merge(stats)
        )
