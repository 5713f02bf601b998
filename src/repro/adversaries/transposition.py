"""Shared transposition table over canonical configuration keys.

The old ``DeadlockAdversary`` memo was private, deadlock-only, and keyed
by an ad-hoc tuple that silently switched itself off on unhashable
payloads.  This module generalises it into the durable half of the
search kernel: a :class:`TranspositionTable` maps
:meth:`~repro.core.execution.ExecutionState.config_key` digests to
**completion values** — what the rest of the execution can still do
from that configuration — so knowledge transfers *across* strategies
inside one stress cell:

* branch-and-bound stores the exact completion frontier of every
  subtree it fully sweeps (a truncated subtree stores nothing, so every
  stored frontier is exact), and skips re-expanding a configuration
  whose frontier it already knows;
* the deadlock seeker prunes subtrees recorded deadlock-free (by
  itself or by a branch-and-bound sweep) and records the fact when it
  exhausts one;
* greedy descents finish instantly from any configuration whose exact
  frontier is known; beam passes dedupe frontier prefixes that digest
  to the same configuration.

**Dominance semantics.**  Witness badness is ranked lexicographically
(:func:`~repro.adversaries.base.witness_rank`): ``(deadlock, max bits,
total bits)``.  The best completion of a configuration therefore
depends on the *context* it is reached with — a suffix with the larger
single message wins from an empty board, while a suffix with the larger
total wins once the prefix already wrote something bigger.  An entry
keeps a **frontier** of completions in first-discovered (DFS) order: a
later completion is dropped only when an *earlier* one dominates it
(wins or ties in every context), which both keeps the frontier small
and — because ties keep the earlier witness, exactly like the incumbent
update in the searches — makes table-on and table-off sweeps return
field-identical witnesses.

A table is scoped to one ``(graph, protocol, model, bit budget)`` cell:
completion values do not transfer between cells, and :meth:`bind`
raises if a caller tries.  Within a cell the configuration digest is
the whole key: a protocol is a pure function of its view, so equal
digests have equal futures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from ..core.execution import ExecutionState
from ..faults.spec import resolve_faults
from .base import Witness

__all__ = ["Completion", "TableEntry", "TranspositionTable",
           "dominance_frontier", "iter_composed", "best_composed"]


@dataclass(frozen=True)
class Completion:
    """One way the execution can end from a given configuration.

    ``max_bits``/``total_bits`` cover the *suffix* only; composing with
    a prefix that has written ``b`` bits at most and ``t`` in total
    yields a run worth ``(deadlock, max(b, max_bits), t + total_bits)``.
    ``suffix`` is the replayable choice sequence, so a table hit still
    produces a concrete witness schedule, never just a number.
    """

    deadlock: bool
    max_bits: int
    total_bits: int
    suffix: tuple[int, ...]

    def dominates(self, other: "Completion") -> bool:
        """Whether this completion wins-or-ties ``other`` in *every*
        prefix context (the partial order behind the frontier)."""
        if self.deadlock != other.deadlock:
            return self.deadlock
        return (self.max_bits >= other.max_bits
                and self.total_bits >= other.total_bits)


@dataclass
class TableEntry:
    """What the table knows about one configuration.

    ``completions`` is the dominance frontier in first-discovered order.
    Only fully swept subtrees record one, so an entry that holds
    completions is :attr:`exact`: it enumerates every non-dominated
    outcome of the full subtree.  ``deadlock_free`` is the one fact that
    is useful on its own — no completion of the configuration deadlocks
    — and may be known even when the bits frontier is not.

    ``warm`` marks an entry served from a persistent frontier store
    (a previous run) rather than recorded by the current one.  Warm
    entries are invisible to the greedy descent — which runs before any
    exact sweep and must behave byte-identically with or without a warm
    store — while branch-and-bound and the deadlock seeker may consume
    them freely (their results are invariant under any sound table
    content).  Re-recording an entry this run clears the flag.
    """

    completions: tuple[Completion, ...] = ()
    deadlock_free: bool = False
    warm: bool = False

    @property
    def exact(self) -> bool:
        """Whether the entry holds the subtree's exact frontier."""
        return bool(self.completions)


def dominance_frontier(
    completions: Iterable[Completion],
) -> tuple[Completion, ...]:
    """Dominance-filter ``completions``, preserving discovery order.

    A completion is kept unless an *earlier* kept one dominates it —
    never the other way around, because an earlier equal-rank witness
    is the one a plain DFS incumbent would have kept.
    """
    kept: list[Completion] = []
    for completion in completions:
        if not any(earlier.dominates(completion) for earlier in kept):
            kept.append(completion)
    return tuple(kept)


def iter_composed(strategy: str, state: ExecutionState,
                  completions: Iterable[Completion], explored: int,
                  choice: Optional[int] = None,
                  edge_bits: int = 0,
                  edge_total: Optional[int] = None) -> "Iterable[Witness]":
    """Full witnesses from composing ``completions`` onto the prefix
    held by ``state`` (optionally extended by one probed-but-rolled-back
    ``choice`` whose message cost ``edge_bits``), **in completion
    order**.

    This is the one composition rule behind every table hit: folding
    the yielded witnesses with :func:`~repro.adversaries.base.
    worst_witness` (or taking the :func:`~repro.adversaries.base.
    witness_rank` max — both keep the first on ties) reproduces exactly
    the incumbent updates the expanded subtree would have made, which
    is the field-identity guarantee of table-on sweeps.

    ``edge_total`` is the probed edge's contribution to the board total
    when it differs from ``edge_bits`` — a duplicated write costs
    ``2 × bits`` on the total while counting once for the maximum, and a
    crash or loss costs 0 — and defaults to ``edge_bits`` (the reliable
    write case).
    """
    board = state.board
    base_bits = max(board.max_bits(), edge_bits)
    base_total = board.total_bits() + (
        edge_total if edge_total is not None else edge_bits
    )
    prefix = state.schedule if choice is None else state.schedule + (choice,)
    for completion in completions:
        yield Witness(
            strategy=strategy,
            schedule=prefix + completion.suffix,
            bits=max(base_bits, completion.max_bits),
            total_bits=base_total + completion.total_bits,
            deadlock=completion.deadlock,
            explored=explored,
        )


def best_composed(strategy: str, state: ExecutionState, entry: TableEntry,
                  explored: int) -> Witness:
    """The worst full witness reachable from ``state`` given its exact
    completion frontier (first-discovered completion wins ties, matching
    the incumbent-update rule of the searches)."""
    from .base import witness_rank

    if not entry.exact or not entry.completions:
        raise ValueError("best_composed needs an exact, non-empty entry")
    return max(iter_composed(strategy, state, entry.completions, explored),
               key=witness_rank)


class TranspositionTable:
    """Per-configuration completion values shared across strategies.

    One instance serves one stress cell; the search kernel threads it
    through every strategy via
    :class:`~repro.adversaries.kernel.SearchContext`.  Hit/miss/store
    counters feed the bench's hit-rate report.
    """

    def __init__(self) -> None:
        self._entries: dict[Any, TableEntry] = {}
        self._scope: Optional[tuple] = None
        self._dirty: set = set()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.frontier_hits = 0
        self.frontier_stores = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def probes(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        probes = self.probes
        return self.hits / probes if probes else 0.0

    # -- scoping -------------------------------------------------------

    @staticmethod
    def _component_token(obj: Any) -> tuple:
        """Identity of a protocol for scope checks: class plus primitive
        constructor attributes (the same convention campaign
        fingerprints use)."""
        try:
            attrs = vars(obj)
        except TypeError:
            attrs = {}
        primitives = tuple(sorted(
            (key, value) for key, value in attrs.items()
            if not key.startswith("_")
            and isinstance(value, (bool, int, float, str, type(None)))
        ))
        return (type(obj).__module__, type(obj).__qualname__, primitives)

    def bind(self, graph, protocol, model, bit_budget, faults=None) -> None:
        """Pin (or re-check) the cell this table serves.

        Completion values are only valid for the exact (graph, protocol,
        model, budget, fault budget) they were computed under; reusing a
        table across cells would serve wrong answers, so it raises
        instead.
        """
        scope = (graph, self._component_token(protocol), model.name,
                 bit_budget, resolve_faults(faults).canonical())
        if self._scope is None:
            self._scope = scope
        elif self._scope != scope:
            raise ValueError(
                "TranspositionTable is scoped to one (graph, protocol, "
                "model, bit budget, fault budget) cell; create a fresh "
                "table (or a fresh SearchContext) per cell"
            )

    # -- lookups -------------------------------------------------------

    def lookup(self, key: tuple) -> Optional[TableEntry]:
        """The entry for ``key`` (counting a hit), or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
            if entry.warm:
                self.frontier_hits += 1
        return entry

    def get(self, key: tuple) -> Optional[TableEntry]:
        """Like :meth:`lookup` but without touching the counters (for
        bookkeeping reads that should not skew the hit rate)."""
        return self._entries.get(key)

    # -- updates -------------------------------------------------------

    def _entry(self, key: tuple) -> TableEntry:
        entry = self._entries.get(key)
        if entry is None:
            entry = TableEntry()
            self._entries[key] = entry
        return entry

    def record_exact(self, key: tuple,
                     completions: Iterable[Completion]) -> TableEntry:
        """Store the exact completion frontier of a fully swept subtree.

        Idempotent: an entry that is already exact is left untouched
        (the first recording was made in DFS-first order; later sweeps
        in shuffled order must not replace it).
        """
        entry = self._entry(key)
        if not entry.exact:
            entry.completions = dominance_frontier(completions)
            entry.deadlock_free = not any(
                c.deadlock for c in entry.completions
            )
            entry.warm = False
            self.stores += 1
            self._dirty.add(key)
        return entry

    def record_deadlock_free(self, key: tuple) -> None:
        """Record the standalone fact that no deadlock is reachable
        (a complete deadlock-DFS exhausted the subtree)."""
        entry = self._entry(key)
        if not entry.deadlock_free:
            entry.deadlock_free = True
            self.stores += 1
            self._dirty.add(key)

    # -- persistent frontiers ------------------------------------------

    def preload(self, items: "Iterable[tuple[tuple, TableEntry]]") -> int:
        """Seed the table from a persistent frontier store.

        Every served entry is marked ``warm``; preloaded rows are not
        dirty (exporting them back would be a no-op write).  Returns the
        number of entries loaded.  Must run before any search probes the
        table (preloading never overwrites an existing entry).
        """
        count = 0
        for key, entry in items:
            if key in self._entries:
                continue
            entry.warm = True
            self._entries[key] = entry
            count += 1
        return count

    def export_dirty(self) -> list:
        """The ``(key, entry)`` rows recorded or tightened by this run,
        for the persistent frontier store.  Counts each exported row in
        ``frontier_stores`` and clears the dirty set."""
        rows = [(key, self._entries[key]) for key in self._dirty]
        self.frontier_stores += len(rows)
        self._dirty.clear()
        return rows
