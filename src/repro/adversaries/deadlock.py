"""Deadlock-seeking adversary: search for a corrupted configuration."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

from ..core.execution import ExecutionState
from ..core.models import ModelSpec
from ..core.protocol import Protocol
from ..faults.spec import FaultSpec, resolve_faults
from ..graphs.labeled_graph import LabeledGraph
from .base import AdversarySearch, Witness, worst_witness
from .kernel import OutOfBudget, SearchContext, complete_ascending
from .transposition import TableEntry, iter_composed

__all__ = ["DeadlockAdversary"]


class DeadlockAdversary(AdversarySearch):
    """Depth-first hunt for a schedule that starves the protocol.

    A configuration is corrupted when unwritten nodes remain but none is
    active — only possible in the free models (simultaneous models keep
    every unwritten node active, so the search returns immediately with
    a completed run there).  The DFS steers one
    :class:`~repro.core.execution.ExecutionState` by advance and
    restore, and stops at the *first* deadlock found:

    * children are probed one step ahead and explored in order of fewest
      resulting candidates first — choices that starve future
      activations are tried early, which is what finds deadlocks fast;
    * a probe that lands directly in a corrupted configuration returns
      its witness without recursing;
    * revisited configurations are pruned via the canonical
      :meth:`~repro.core.execution.ExecutionState.config_key` digest —
      deadlock reachability is a function of the configuration alone.
      (The digest goes through the payload codec, so dict/list payloads
      memoise exactly like any other; the old ad-hoc key silently
      disabled the memo on unhashable payloads.)

    With a shared-table :class:`~repro.adversaries.kernel.SearchContext`
    the search additionally *exchanges deadlock-reachability facts*:
    subtrees whose **exact** completion frontier is recorded as
    deadlock-free (e.g. by a branch-and-bound sweep in the same cell)
    are pruned without descent, their worst completion folded into the
    fallback witness instead; and every subtree this DFS exhausts
    without a deadlock is recorded as a deadlock-free fact for later
    consumers.  Sharing never changes the *deadlock verdict* or a found
    deadlock's schedule (only deadlock-free subtrees are skipped, and
    the rest is explored in the identical order); for deadlock-free
    instances the fallback completion witness keeps the identical
    (bits, total) rank, though possibly via a different schedule.

    Within ``max_steps`` the search is complete: it finds a deadlock iff
    one is reachable.  If the budget runs out first, the worst completed
    run seen so far is returned (``deadlock=False`` then means "none
    found", not "none exists").
    """

    name = "deadlock-dfs"

    def __init__(self, max_steps: Optional[int] = 100_000) -> None:
        if max_steps is not None and max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        self.max_steps = max_steps

    def search(
        self,
        graph: LabeledGraph,
        protocol: Protocol,
        model: ModelSpec,
        bit_budget: Optional[int] = None,
        *,
        context: Optional[SearchContext] = None,
        faults: Union[None, str, FaultSpec] = None,
    ) -> Witness:
        spec = resolve_faults(faults)
        ctx = SearchContext.ensure(context)
        table = ctx.table
        if table is not None:
            table.bind(graph, protocol, model, bit_budget, faults=spec)
        ctx.stats.searches += 1
        self._meter = ctx.meter(self.max_steps)
        self._table = table
        state = ExecutionState.initial(graph, protocol, model, bit_budget,
                                       faults=spec)
        self._best_complete: Optional[Witness] = None
        self._seen: set = set()
        if model.simultaneous:
            # Every unwritten, uncrashed node is active — under faults
            # too (crashed nodes are terminated, not starved): no
            # deadlock exists.  One completion supplies the witness.
            return self._complete(state)
        try:
            found = self._dfs(state)
        except OutOfBudget:
            found = None
        if found is not None:
            return found
        if self._best_complete is None:
            # Budget too small to finish any probe: force one completion.
            return self._complete(state)
        return replace(self._best_complete, explored=self._meter.spent)

    def _complete(self, state: ExecutionState) -> Witness:
        complete_ascending(state, self._meter)
        return self._witness(state, self._meter.spent)

    def _fold_pruned(self, state: ExecutionState, choice: int,
                     edge_bits: int, edge_total: int,
                     entry: TableEntry) -> None:
        """A pruned deadlock-free subtree with a known exact frontier
        still contributes its worst completion to the fallback witness,
        so pruning never *loses* badness the plain DFS would have seen."""
        for witness in iter_composed(self.name, state, entry.completions,
                                     self._meter.spent, choice=choice,
                                     edge_bits=edge_bits,
                                     edge_total=edge_total):
            self._best_complete = (
                witness if self._best_complete is None
                else worst_witness(self._best_complete, witness)
            )

    def _dfs(self, state: ExecutionState) -> Optional[Witness]:
        if state.terminal:
            if state.deadlocked:
                return self._witness(state, self._meter.spent)
            self._best_complete = self._witness(state, self._meter.spent,
                                                self._best_complete)
            return None
        table = self._table
        children = []
        checkpoint = state.depth
        for choice in state.candidates:
            self._meter.spend()
            state.advance(choice)
            if state.deadlocked:
                witness = self._witness(state, self._meter.spent)
                state.restore(checkpoint)
                return witness
            key = state.config_key()
            # last_event accounting: a crash or loss probe leaves the
            # board untouched (possibly empty), so the board tail is not
            # the probed edge.
            edge_bits = state.last_event_bits
            edge_total = state.last_event_total
            children.append((len(state.candidates), choice, key, edge_bits,
                             edge_total))
            state.restore(checkpoint)
        for _, choice, key, edge_bits, edge_total in sorted(
                children, key=lambda c: c[:2]):
            if key in self._seen:
                continue
            if table is not None:
                entry = table.lookup(key)
                # Prune only subtrees whose exact frontier is known:
                # folding it keeps the fallback witness at the same
                # badness rank the full DFS would have reached.  A bare
                # deadlock-free fact (no completions) is not enough —
                # skipping on it could lose the worst completion.
                if (entry is not None and entry.deadlock_free
                        and entry.exact):
                    self._fold_pruned(state, choice, edge_bits,
                                      edge_total, entry)
                    continue
            self._seen.add(key)
            self._meter.spend()
            state.advance(choice)
            found = self._dfs(state)
            state.restore(checkpoint)
            if found is not None:
                return found
            if table is not None:
                # The whole subtree under ``choice`` is deadlock-free.
                table.record_deadlock_free(key)
        return None
