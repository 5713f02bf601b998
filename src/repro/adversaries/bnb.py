"""Branch-and-bound over the full schedule tree."""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional, Union

from ..core.execution import ExecutionState
from ..core.models import ModelSpec
from ..core.protocol import Protocol
from ..faults.spec import FaultSpec, resolve_faults
from ..graphs.labeled_graph import LabeledGraph
from .base import AdversarySearch, Witness, worst_witness
from .kernel import OutOfBudget, SearchContext, complete_ascending
from .transposition import Completion, dominance_frontier, iter_composed

__all__ = ["BranchAndBoundAdversary"]


class BranchAndBoundAdversary(AdversarySearch):
    """Exact search for the worst schedule, with structural pruning.

    A depth-first sweep of the whole choice tree over one
    :class:`~repro.core.execution.ExecutionState` — the same shape as
    exhaustive enumeration — but subtrees whose outcome is already
    determined are *collapsed* instead of enumerated:

    * **SIMASYNC collapse.**  Simultaneous-asynchronous executions
      freeze every message before the first write, so the board multiset
      — hence the largest message and the total — is schedule-invariant,
      and simultaneous models cannot deadlock.  One completion is the
      exact answer: the tree never branches at all.
    * **Frozen-tail collapse.**  In any asynchronous model, once every
      node has activated the remaining messages are frozen and no
      further activation decision exists: every completion of the prefix
      writes the same multiset, and no deadlock can appear.  The subtree
      (up to ``k!`` schedules) is replaced by a single ascending
      completion.
    * **Transposition collapse** (shared-table contexts only).  The
      sweep maintains the exact **completion frontier** of every subtree
      it finishes — the dominance-filtered set of suffix outcomes, in
      discovery order — and stores it in the context's
      :class:`~repro.adversaries.transposition.TranspositionTable`.  A
      configuration whose frontier is already known (from an earlier
      subtree, an earlier restart pass, or another strategy in the same
      stress cell) is *composed* instead of re-expanded.  Because ties
      keep the first-discovered completion — the same rule the incumbent
      update uses — a table-backed sweep returns the field-identical
      witness of the plain sweep, just cheaper.  Only fully swept
      subtrees are stored, so every stored frontier is exact; a subtree
      the step budget truncates leaves no entry.

    Within ``max_steps`` the sweep is complete, so the witness is the
    exact worst case (ties broken towards the DFS-first schedule: a
    leaf replaces the incumbent only when it ranks strictly worse, and
    only then is a witness built for it).  When
    the budget runs out the incumbent is returned and, if ``restarts``
    is positive, additional budgeted passes with seeded-random child
    order diversify the truncated exploration — the branch-and-bound
    analogue of random restarts.
    """

    name = "branch-and-bound"

    def __init__(
        self,
        max_steps: Optional[int] = None,
        restarts: int = 2,
        seed: int = 0,
    ) -> None:
        if max_steps is not None and max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        if restarts < 0:
            raise ValueError(f"restarts must be >= 0, got {restarts}")
        self.max_steps = max_steps
        self.restarts = restarts
        self.seed = seed

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
        self._meter = ctx.meter(None)
        self._table = table
        self._best: Optional[Witness] = None
        self._faults = spec
        state = ExecutionState.initial(graph, protocol, model, bit_budget,
                                       faults=spec)
        if model.simultaneous and model.asynchronous and not spec.enabled:
            # The collapse is only sound for reliable executions: a
            # crash or loss changes the board multiset, so a faulted
            # SIMASYNC tree genuinely branches.
            try:
                self._complete_ascending(state)
            except OutOfBudget:
                pass  # context budget exhausted mid-collapse
            self._force_completion(graph, protocol, model, bit_budget)
            return self._best
        truncated = self._sweep(state, rng=None)
        if truncated:
            for attempt in range(self.restarts):
                ctx.stats.restarts += 1
                rng = ctx.rng(self.seed, attempt)
                fresh = ExecutionState.initial(graph, protocol, model,
                                               bit_budget, faults=spec)
                self._sweep(fresh, rng=rng)
        self._force_completion(graph, protocol, model, bit_budget)
        return replace(self._best, explored=self._meter.spent)

    def _force_completion(self, graph, protocol, model, bit_budget) -> None:
        """Budget exhausted before any completion: force one descent
        (charged but never aborted, so a witness always exists)."""
        if self._best is not None:
            return
        fresh = ExecutionState.initial(graph, protocol, model, bit_budget,
                                       faults=self._faults)
        complete_ascending(fresh, self._meter)
        self._record(fresh)

    def _sweep(self, state: ExecutionState,
               rng: Optional[random.Random]) -> bool:
        """One budgeted DFS pass; returns whether it was truncated."""
        limit = (None if self.max_steps is None
                 else self._meter.spent + self.max_steps)
        try:
            self._dfs(state, rng, limit)
        except OutOfBudget:
            return True
        return False

    def _record(self, state: ExecutionState) -> None:
        self._best = self._witness(state, self._meter.spent, self._best)

    def _advance(self, state: ExecutionState, choice: int,
                 limit: Optional[int]) -> None:
        if limit is not None and self._meter.spent >= limit:
            raise OutOfBudget
        state.advance(choice)
        self._meter.spend()

    def _complete_ascending(self, state: ExecutionState,
                            limit: Optional[int] = None) -> None:
        while not state.terminal:
            self._advance(state, state.candidates[0], limit)
        self._record(state)

    def _compose_hit(self, state: ExecutionState,
                     completions: tuple[Completion, ...]) -> None:
        """Fold a known frontier into the incumbent, in discovery order
        (exactly the updates the expanded subtree would have made)."""
        for witness in iter_composed(self.name, state, completions,
                                     self._meter.spent):
            self._best = (witness if self._best is None
                          else worst_witness(self._best, witness))

    #: Subtrees with fewer remaining write events than this are cheaper
    #: to re-expand than to digest, store and compose: a table hit on a
    #: 1-step subtree saves one ``advance``.  Keeping them out of the
    #: table cuts the bookkeeping in hit-poor cells roughly in half
    #: without touching the hits that matter (near the root).
    MIN_TABLE_SUBTREE = 2

    def _dfs(self, state: ExecutionState, rng: Optional[random.Random],
             limit: Optional[int]) -> tuple[Completion, ...]:
        """Sweep the subtree under ``state``; returns its exact
        completion frontier relative to ``state`` when a table is
        attached.  Without a table the frontier is dead weight, so none
        is built and the sweep returns ``()``."""
        table = self._table
        key = None
        if table is not None:
            remaining = state.n - len(state.written) - len(state.crashed)
            if remaining >= self.MIN_TABLE_SUBTREE:
                key = state.config_key()
                entry = table.lookup(key)
                if entry is not None and entry.exact:
                    self._compose_hit(state, entry.completions)
                    return entry.completions
        if state.terminal:
            self._record(state)
            if table is None:
                return ()
            frontier = (Completion(state.deadlocked, 0, 0, ()),)
        elif self._frozen_tail(state):
            # Frozen tail: every completion writes the same multiset and
            # none deadlocks — one ascending completion is exact.
            depth = state.depth
            written = len(state.board)
            self._complete_ascending(state, limit)
            if table is None:
                state.restore(depth)
                return ()
            # Board index, not schedule depth: an earlier crash or loss
            # event advanced the schedule without writing an entry.
            suffix_bits = [e.bits for e in state.board.entries[written:]]
            frontier = (Completion(
                deadlock=False,
                max_bits=max(suffix_bits, default=0),
                total_bits=sum(suffix_bits),
                suffix=state.schedule[depth:],
            ),)
            state.restore(depth)
        else:
            candidates = list(state.candidates)
            if rng is not None:
                rng.shuffle(candidates)
            completions: list[Completion] = []
            checkpoint = state.depth
            for choice in candidates:
                self._advance(state, choice, limit)
                if table is None:
                    self._dfs(state, rng, limit)
                    state.restore(checkpoint)
                    continue
                # last_event accounting, not the board tail: a crash or
                # loss edge costs 0 bits and a duplicated write doubles
                # the total while counting once for the maximum.
                edge_bits = state.last_event_bits
                edge_total = state.last_event_total
                child_front = self._dfs(state, rng, limit)
                state.restore(checkpoint)
                for c in child_front:
                    completions.append(Completion(
                        deadlock=c.deadlock,
                        max_bits=max(edge_bits, c.max_bits),
                        total_bits=edge_total + c.total_bits,
                        suffix=(choice,) + c.suffix,
                    ))
            if table is None:
                return ()
            frontier = dominance_frontier(completions)
        if key is not None:
            table.record_exact(key, frontier)
        return frontier

    @staticmethod
    def _frozen_tail(state: ExecutionState) -> bool:
        # Unspent fault budget invalidates the collapse: a crash can
        # still discard a frozen message, a loss or duplication can
        # still change the board multiset.
        return (state.model.asynchronous
                and not state.faults_remaining
                and (len(state.active) + len(state.written)
                     + len(state.crashed)) == state.n)
