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
from .base import AdversarySearch, Witness, witness_rank, worst_witness
from .kernel import OutOfBudget, SearchContext, complete_ascending
from .transposition import (Completion, dominance_frontier, iter_composed,
                            join_bounds, merge_bounds)

__all__ = ["BranchAndBoundAdversary"]


class BranchAndBoundAdversary(AdversarySearch):
    """Exact search for the worst schedule, with structural pruning.

    A depth-first sweep of the whole choice tree over one
    :class:`~repro.core.execution.ExecutionState` — the same shape as
    exhaustive enumeration — but subtrees whose outcome is already
    determined are *bounded* instead of enumerated:

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
      witness of the plain sweep, just cheaper.
    * **Admissible-bound pruning** (shared-table contexts, ``bounds``
      on).  Before expanding a subtree the sweep composes the state's
      intrinsic :meth:`~repro.core.execution.ExecutionState.
      suffix_bound` with any bound the table stored for the
      configuration; a subtree whose composed bound cannot beat the
      incumbent — ``(deadlock, max bits, total bits)`` rank at most the
      incumbent's — is skipped entirely.  Admissibility (the bound is
      never below the true subtree maximum) plus the first-on-tie
      incumbent rule make pruning invisible to the returned witness:
      every skipped completion would have lost (or tie-lost) the
      incumbent update.  Truncated and pruned subtrees *store* their
      bound in the table, so later passes — and, through the persistent
      frontier store, later runs — prune them without a single step.
      Pruning coexists with the frontier bookkeeping: a pruned child
      whose composed bound an earlier sibling's completion dominates is
      *absorbed* (dominance filtering would have dropped everything it
      held, so the parent's frontier stays exact), and an unabsorbed
      prune degrades the parent to a **partial frontier** — the swept
      completions plus a bound over the pruned remainder — which later
      passes consume like an exact hit once their incumbent beats the
      remainder bound.
      One caveat: a pruned subtree is never stepped, so a
      ``MessageTooLarge`` a boundless sweep would have raised inside it
      is not raised — a search-order artifact (exhaustive enumeration
      still surfaces the violating schedule; pruning only engages above
      the exhaustive threshold).  The table-free sweep stays
      non-pruning, so its ``explored`` counts are unchanged.

    Within ``max_steps`` the sweep is complete, so the witness is the
    exact worst case (ties broken towards the DFS-first schedule).  When
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
        bounds: bool = True,
    ) -> None:
        if max_steps is not None and max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        if restarts < 0:
            raise ValueError(f"restarts must be >= 0, got {restarts}")
        self.max_steps = max_steps
        self.restarts = restarts
        self.seed = seed
        self.bounds = bounds

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
        witness = self._witness(state, self._meter.spent)
        self._best = (witness if self._best is None
                      else worst_witness(self._best, witness))

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

    def _prunable(self, state: ExecutionState,
                  bound: tuple[bool, int, int]) -> bool:
        """Whether the subtree's composed bound rank cannot beat the
        incumbent.  Rank-equal completions lose too: the incumbent was
        discovered earlier in DFS order, and ties keep the first."""
        best = self._best
        if best is None:
            return False
        deadlock, top, total = bound
        board = state.board
        rank = (deadlock, max(board.max_bits(), top),
                board.total_bits() + total)
        return rank <= witness_rank(best)

    def _dfs(self, state: ExecutionState, rng: Optional[random.Random],
             limit: Optional[int],
             ) -> tuple[tuple[Completion, ...], bool, Optional[tuple]]:
        """Sweep the subtree under ``state``; with a table attached,
        returns ``(frontier, exact, remainder bound)`` — the completion
        frontier relative to ``state`` (exact when ``exact``, else the
        partial frontier of the swept part), and, when inexact, an
        admissible bound over the *pruned remainder* so parents can
        compose both halves.  A pruned child is **absorbed** when an
        earlier-kept completion dominates its composed bound (every
        completion it could hold would have been dominance-dropped
        anyway, so exactness survives); otherwise the parent stores a
        partial frontier plus the joined remainder bound.  Without a
        table the frontier is dead weight, so none is built — the
        table-off sweep stays exactly the pre-kernel loop."""
        table = self._table
        if table is None:
            return self._dfs_plain(state, rng, limit)
        remaining = state.n - len(state.written) - len(state.crashed)
        key = (
            table.key_for(state)
            if remaining >= self.MIN_TABLE_SUBTREE
            else None
        )
        entry = None
        if key is not None:
            entry = table.lookup(key)
            if entry is not None and entry.exact:
                self._compose_hit(state, entry.completions)
                return entry.completions, True, None
            if self.bounds and entry is not None:
                stored = entry.effective_bound()
                if stored is not None and self._prunable(state, stored):
                    # Partial (or bound-only) hit: the unexplored
                    # remainder cannot beat the incumbent, so the stored
                    # completions are every update an expansion would
                    # have made.
                    self._compose_hit(state, entry.completions)
                    self._meter.stats.bound_prunes += 1
                    return entry.completions, False, stored
        if state.terminal:
            self._record(state)
            frontier = (Completion(state.deadlocked, 0, 0, ()),)
            table.record_exact(key, frontier)
            return frontier, True, None
        if self.bounds:
            bound = state.suffix_bound()
            if entry is not None and not entry.completions:
                # A bound without completions covers the whole subtree,
                # so it tightens the intrinsic one.  A partial entry's
                # bound covers only its remainder — merging it here
                # would prune completions the entry does hold.
                bound = merge_bounds(bound, entry.effective_bound())
            if bound is not None and self._prunable(state, bound):
                self._meter.stats.bound_prunes += 1
                table.record_bound(key, bound)
                return (), False, bound
        if self._frozen_tail(state):
            # Frozen tail: every completion writes the same multiset and
            # none deadlocks — one ascending completion is exact.
            depth = state.depth
            base_total = state.board.total_bits()
            checkpoint = state.snapshot()
            self._complete_ascending(state, limit)
            suffix = state.schedule[depth:]
            suffix_entries = state.board.entries[depth:]
            frontier = (Completion(
                deadlock=False,
                max_bits=max((e.bits for e in suffix_entries), default=0),
                total_bits=state.board.total_bits() - base_total,
                suffix=suffix,
            ),)
            state.restore(checkpoint)
            table.record_exact(key, frontier)
            return frontier, True, None
        candidates = list(state.candidates)
        if rng is not None:
            rng.shuffle(candidates)
        completions: list[Completion] = []
        exact = True
        rem_bound: Optional[tuple] = (False, 0, 0)  # join identity
        for choice in candidates:
            prior = len(completions)
            checkpoint = state.snapshot()
            try:
                self._advance(state, choice, limit)
                # last_event accounting, not the board tail: a crash or
                # loss edge costs 0 bits and a duplicated write doubles
                # the total while counting once for the maximum.
                edge_bits = state.last_event_bits
                edge_total = state.last_event_total
                child_front, child_exact, child_bound = self._dfs(
                    state, rng, limit)
            except OutOfBudget:
                # Truncated mid-subtree: the bound is still admissible,
                # so store it — the next pass (or the next warm run)
                # prunes this subtree instead of re-truncating inside it.
                state.restore(checkpoint)
                if self.bounds:
                    table.record_bound(key, state.suffix_bound())
                raise
            state.restore(checkpoint)
            for c in child_front:
                completions.append(Completion(
                    deadlock=c.deadlock,
                    max_bits=max(edge_bits, c.max_bits),
                    total_bits=edge_total + c.total_bits,
                    suffix=(choice,) + c.suffix,
                ))
            if child_exact:
                continue
            composed = None if child_bound is None else Completion(
                deadlock=child_bound[0],
                max_bits=max(edge_bits, child_bound[1]),
                total_bits=edge_total + child_bound[2],
                suffix=(),
            )
            if composed is not None and any(
                earlier.dominates(composed)
                for earlier in completions[:prior]
            ):
                # Absorbed: an earlier sibling's completion dominates
                # the whole pruned remainder, so dominance filtering
                # would have dropped every completion it could hold —
                # the frontier is exact without it.  Only *earlier
                # siblings* qualify: this child's own completions may be
                # DFS-later than its pruned parts, and a later dominator
                # flips first-on-tie.
                continue
            exact = False
            rem_bound = None if composed is None else join_bounds(
                rem_bound,
                (composed.deadlock, composed.max_bits, composed.total_bits),
            )
        frontier = dominance_frontier(completions)
        if not exact:
            # An unabsorbed pruned child leaves the frontier partial:
            # store what was swept plus the joined remainder bound, so
            # later passes compose the known half and prune the rest.
            table.record_partial(key, frontier, rem_bound)
            return frontier, False, rem_bound
        table.record_exact(key, frontier)
        return frontier, True, None

    @staticmethod
    def _frozen_tail(state: ExecutionState) -> bool:
        # Unspent fault budget invalidates the collapse: a crash can
        # still discard a frozen message, a loss or duplication can
        # still change the board multiset.
        return (state.model.asynchronous
                and not state.faults_remaining
                and (len(state.active) + len(state.written)
                     + len(state.crashed)) == state.n)

    def _dfs_plain(self, state: ExecutionState,
                   rng: Optional[random.Random],
                   limit: Optional[int]) -> None:
        """The table-free sweep: identical expansion order and incumbent
        updates, no frontier bookkeeping."""
        if state.terminal:
            self._record(state)
            return None
        if self._frozen_tail(state):
            checkpoint = state.snapshot()
            self._complete_ascending(state, limit)
            state.restore(checkpoint)
            return None
        candidates = list(state.candidates)
        if rng is not None:
            rng.shuffle(candidates)
        for choice in candidates:
            checkpoint = state.snapshot()
            self._advance(state, choice, limit)
            self._dfs_plain(state, rng, limit)
            state.restore(checkpoint)
        return None
