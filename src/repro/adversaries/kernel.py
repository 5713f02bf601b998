"""The shared search kernel: budgets, seeded RNG, stats, table access.

PR 3 left each adversary strategy with its own private loop scaffolding
— two identical ``_OutOfBudget`` exceptions, hand-rolled step counters,
ad-hoc ``random.Random(f"{seed}:{i}")`` constructions, and exactly one
(private) memo.  The kernel extracts that scaffolding into one place so
the strategies are thin *policies* — what to expand next — over shared
*mechanism*:

* :class:`SearchContext` is the per-cell carrier: the optional shared
  :class:`~repro.adversaries.transposition.TranspositionTable`, a
  cumulative :class:`SearchStats`, an optional cell-wide step budget on
  top of each strategy's own, and the seeded-RNG factory every
  restart/tiebreak stream comes from.  A stress cell builds one context
  and threads it through every strategy it runs, which is what makes
  pruning knowledge transfer between them.
* :class:`BudgetMeter` meters ``advance`` calls: ``spend`` enforces the
  strategy budget and the context budget, ``charge`` counts without
  enforcing (the forced-completion paths, which must be allowed to
  reach a terminal configuration even on an exhausted budget).
* :exc:`OutOfBudget` replaces the per-module private exceptions.

Strategies remain deterministic for fixed construction parameters: the
context adds no entropy of its own (``rng`` hashes exactly the caller's
tokens), and a fresh default context is created per ``search`` call
when none is supplied.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.execution import ExecutionState
from .transposition import TranspositionTable

__all__ = ["OutOfBudget", "SearchStats", "BudgetMeter", "SearchContext",
           "complete_ascending"]


class OutOfBudget(Exception):
    """A step budget (strategy-level or context-level) ran out."""


class SearchStats:
    """Cumulative accounting across every search a context hosted."""

    __slots__ = ("steps", "searches", "restarts")

    def __init__(self) -> None:
        self.steps = 0
        self.searches = 0
        self.restarts = 0


class BudgetMeter:
    """Counts write events for one search, enforcing both budgets.

    ``spent`` is the strategy-local count — it is what every strategy
    reports as ``Witness.explored``, so explored counts stay comparable
    with the pre-kernel implementations step for step.
    """

    __slots__ = ("stats", "limit", "context_limit", "spent")

    def __init__(self, stats: SearchStats, max_steps: Optional[int],
                 context_limit: Optional[int]) -> None:
        self.stats = stats
        self.limit = max_steps
        self.context_limit = context_limit
        self.spent = 0

    def spend(self, n: int = 1) -> None:
        """Count ``n`` write events; raise :exc:`OutOfBudget` past
        either the strategy budget or the context budget."""
        self.spent += n
        self.stats.steps += n
        if self.limit is not None and self.spent > self.limit:
            raise OutOfBudget
        if (self.context_limit is not None
                and self.stats.steps > self.context_limit):
            raise OutOfBudget

    def charge(self, n: int = 1) -> None:
        """Count ``n`` write events without enforcement (forced
        completions that must terminate regardless of budget)."""
        self.spent += n
        self.stats.steps += n


class SearchContext:
    """Shared kernel state for every strategy run inside one cell.

    Parameters
    ----------
    table:
        Optional shared :class:`TranspositionTable`.  ``None`` keeps
        every strategy's pruning private exactly as before.
    max_steps:
        Optional cell-wide cap on *total* write events across all
        searches run through this context, on top of each strategy's
        own ``max_steps``.
    """

    def __init__(self, table: Optional[TranspositionTable] = None,
                 max_steps: Optional[int] = None) -> None:
        if max_steps is not None and max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        self.table = table
        self.max_steps = max_steps
        self.stats = SearchStats()

    @classmethod
    def ensure(cls, context: "Optional[SearchContext]") -> "SearchContext":
        """The given context, or a fresh private default."""
        return context if context is not None else cls()

    def meter(self, max_steps: Optional[int]) -> BudgetMeter:
        """A per-search meter enforcing ``max_steps`` and the context
        cap (absolute, so earlier searches' spending counts)."""
        return BudgetMeter(self.stats, max_steps, self.max_steps)

    @staticmethod
    def rng(*tokens) -> random.Random:
        """The kernel's one seeded-RNG construction: a deterministic
        stream from the joined tokens (``rng(7, 2)`` seeds exactly like
        the historical ``random.Random("7:2")``)."""
        return random.Random(":".join(str(token) for token in tokens))


def complete_ascending(state: ExecutionState,
                       meter: BudgetMeter) -> ExecutionState:
    """Drive ``state`` to a terminal configuration by always taking the
    smallest candidate; returns ``state``.

    This is every strategy's budget-exhausted fallback: steps are
    charged to the meter but never enforced, so the completion always
    reaches a terminal configuration and a witness always exists.
    """
    while not state.terminal:
        meter.charge()
        state.advance(state.candidates[0])
    return state
