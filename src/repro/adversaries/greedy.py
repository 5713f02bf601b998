"""Greedy bit-maximising adversary with randomised restarts."""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional, Union

from ..core.execution import ExecutionState
from ..core.models import ModelSpec
from ..core.protocol import Protocol
from ..graphs.labeled_graph import LabeledGraph
from ..faults.spec import FaultSpec, resolve_faults
from .base import AdversarySearch, Witness, worst_witness
from .kernel import BudgetMeter, OutOfBudget, SearchContext, complete_ascending
from .scoring import ScoreHook, resolve_score
from .transposition import best_composed

__all__ = ["GreedyBitsAdversary"]


class GreedyBitsAdversary(AdversarySearch):
    """One-step-lookahead descents in both polarities.

    At every configuration each candidate is probed with
    ``advance``/``restore`` and scored by (does the child
    deadlock?, the :class:`~repro.adversaries.scoring.ScoreHook` step
    score of the write) — a candidate that corrupts the configuration
    outright is the adversary's jackpot and is taken immediately.  Two
    deterministic descents run per search, because message sizes can
    reward either extreme:

    * **eager** — schedule the highest-scoring message *now* (wins when
      early writes inflate later recomputed messages);
    * **defer** — schedule the *lowest*-scoring message now, saving the
      biggest writers for the fullest board (wins when message size
      grows with board length, the typical synchronous pattern).

    Each *restart* re-runs both polarities with seeded-random probing
    order, so ties resolve differently and a descent can land in a
    different local optimum.  The worst witness across all descents is
    returned.  Cost: ``O(restarts · Σ|candidates|)`` write events —
    linear in ``n`` per descent, no backtracking beyond one-step probes.

    When the search context carries a shared transposition table, a
    descent that reaches a configuration whose exact completion
    frontier is already known (e.g. recorded by a branch-and-bound
    sweep in the same stress cell) finishes instantly with the known
    best completion instead of walking the rest of the schedule.
    """

    name = "greedy-bits"

    def __init__(self, restarts: int = 4, seed: int = 0,
                 score: Union[None, str, ScoreHook] = None) -> None:
        if restarts < 0:
            raise ValueError(f"restarts must be >= 0, got {restarts}")
        self.restarts = restarts
        self.seed = seed
        self.score = resolve_score(score)
        #: Primitive mirror of the hook for campaign fingerprints.
        self.score_name = self.score.name

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
        if ctx.table is not None:
            ctx.table.bind(graph, protocol, model, bit_budget, faults=spec)
        ctx.stats.searches += 1
        meter = ctx.meter(None)
        best: Optional[Witness] = None
        try:
            for descent in range(1 + self.restarts):
                rng = ctx.rng(self.seed, descent) if descent else None
                if descent:
                    ctx.stats.restarts += 1
                for defer in (False, True):
                    witness = self._descend(graph, protocol, model,
                                            bit_budget, rng, defer, ctx,
                                            meter, spec)
                    best = (witness if best is None
                            else worst_witness(best, witness))
        except OutOfBudget:
            pass  # context budget exhausted: return the incumbent
        if best is None:
            state = ExecutionState.initial(graph, protocol, model, bit_budget,
                                           faults=spec)
            complete_ascending(state, meter)
            best = self._witness(state, meter.spent)
        return replace(best, explored=meter.spent)

    def _descend(
        self,
        graph: LabeledGraph,
        protocol: Protocol,
        model: ModelSpec,
        bit_budget: Optional[int],
        rng: Optional[random.Random],
        defer: bool,
        ctx: SearchContext,
        meter: BudgetMeter,
        faults: FaultSpec,
    ) -> Witness:
        state = ExecutionState.initial(graph, protocol, model, bit_budget,
                                       faults=faults)
        sign = -1 if defer else 1
        hook = self.score
        table = ctx.table
        while not state.terminal:
            if table is not None:
                entry = table.lookup(state.config_key())
                if entry is not None and entry.exact and not entry.warm:
                    # The rest of this descent is already solved exactly.
                    # Warm (frontier-store) entries are skipped: greedy
                    # runs before any exact sweep, so consuming them
                    # would make a warm run's witness diverge from the
                    # cold run's byte-identical report.
                    return best_composed(self.name, state, entry,
                                         meter.spent)
            candidates = list(state.candidates)
            if rng is not None:
                rng.shuffle(candidates)
            if len(candidates) == 1:
                meter.spend()
                state.advance(candidates[0])
                continue
            best_choice = None
            best_score = None
            checkpoint = state.depth
            for choice in candidates:
                meter.spend()
                state.advance(choice)
                score = (state.deadlocked, sign * hook.step_score(state))
                state.restore(checkpoint)
                if best_score is None or score > best_score:
                    best_choice, best_score = choice, score
            meter.spend()
            state.advance(best_choice)
        return self._witness(state, meter.spent)
