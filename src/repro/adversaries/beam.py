"""Beam search over schedule prefixes."""

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
from .kernel import OutOfBudget, SearchContext, complete_ascending
from .scoring import ScoreHook, resolve_score

__all__ = ["BeamSearchAdversary"]


class BeamSearchAdversary(AdversarySearch):
    """Breadth-first over schedule prefixes, keeping the ``width`` most
    promising per depth.

    Each frontier state is an independent :class:`ExecutionState` fork
    (:meth:`~repro.core.execution.ExecutionState.copy`); expanding it
    applies every adversary choice once.  Prefixes are ranked worst-first
    by the :class:`~repro.adversaries.scoring.ScoreHook` prefix score
    (default: largest message so far, board total) — a deadlocked or
    completed child leaves the frontier and competes for the returned
    witness directly, so terminal worst cases are never pruned away,
    only unfinished prefixes are.

    The sorted frontier is **deduplicated by configuration digest**
    (:meth:`~repro.core.execution.ExecutionState.config_key`) before
    truncation: two prefixes that digest to the same configuration have
    identical futures, so keeping the better-sorted one loses nothing
    and frees a beam slot for a genuinely different prefix.

    The first pass ranks deterministically (ties towards the
    lexicographically smaller schedule); every *restart* re-runs the
    whole beam with a seeded random tiebreak, which lets equal-scoring
    prefixes survive in a different order and escape ties that hide the
    optimum.  Cost per pass: at most ``width · n`` expansions of at most
    ``n`` children each.
    """

    name = "beam"

    def __init__(self, width: int = 8, restarts: int = 1, seed: int = 0,
                 score: Union[None, str, ScoreHook] = None) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if restarts < 0:
            raise ValueError(f"restarts must be >= 0, got {restarts}")
        self.width = width
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
            for attempt in range(1 + self.restarts):
                rng = ctx.rng(self.seed, attempt) if attempt else None
                if attempt:
                    ctx.stats.restarts += 1
                witness = self._pass(graph, protocol, model, bit_budget,
                                     rng, meter, spec)
                best = witness if best is None else worst_witness(best, witness)
        except OutOfBudget:
            pass  # context budget exhausted: return the incumbent
        if best is None:
            state = ExecutionState.initial(graph, protocol, model, bit_budget,
                                           faults=spec)
            complete_ascending(state, meter)
            best = self._witness(state, meter.spent)
        return replace(best, explored=meter.spent)

    def _pass(
        self,
        graph: LabeledGraph,
        protocol: Protocol,
        model: ModelSpec,
        bit_budget: Optional[int],
        rng: Optional[random.Random],
        meter,
        faults: FaultSpec = None,
    ) -> Witness:
        best: Optional[Witness] = None
        hook = self.score
        initial = ExecutionState.initial(graph, protocol, model, bit_budget,
                                         faults=faults)
        if initial.terminal:  # 0 writes: deadlock at round 0, or n == 0
            return self._witness(initial, meter.spent)
        frontier = [initial]
        while frontier:
            scored = []
            for state in frontier:
                for choice in state.candidates:
                    meter.spend()
                    child = state.copy().advance(choice)
                    if child.terminal:
                        best = self._witness(child, meter.spent, best)
                    else:
                        tiebreak = (rng.random() if rng is not None
                                    else 0.0)
                        scored.append((
                            tuple(-part for part in hook.prefix_score(child))
                            + (tiebreak, child.schedule),
                            child,
                        ))
            scored.sort(key=lambda item: item[0])
            frontier = []
            seen: set = set()
            for _, state in scored:
                key = state.config_key()
                if key in seen:
                    continue
                seen.add(key)
                frontier.append(state)
                if len(frontier) >= self.width:
                    break
        if best is None:
            # Unreachable for a well-formed engine (the initial state of a
            # deadlocked instance is itself terminal-free only if some
            # prefix terminates), but guard against protocol bugs.
            raise RuntimeError("beam search found no terminal configuration")
        return best
