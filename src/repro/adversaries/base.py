"""Searchable adversary strategies: the interface and its currency.

The paper's guarantees are universally quantified over adversarial write
schedules.  Exhaustive enumeration checks that quantifier exactly but
dies at ``n ≈ 7`` (``n!`` schedules); the fixed schedulers in
:mod:`repro.core.schedulers` scale but probe only a handful of points.
An :class:`AdversarySearch` sits between the two: it *searches* the
schedule tree — driving one :class:`~repro.core.execution.ExecutionState`
with ``advance``/``restore`` — for a concrete **witness**
schedule that is as bad as it can find: a deadlock if one is reachable,
otherwise a schedule maximising the largest message written.

Every strategy returns a :class:`Witness` carrying the schedule itself,
so a claimed worst case is always replayable
(:func:`~repro.core.execution.replay_schedule`) and narratable
(:func:`~repro.analysis.trace.narrate_witness`) — never just a number.

Badness is ordered lexicographically by :func:`witness_rank`: a deadlock
(the protocol produces no output at all) beats any finite message size;
among non-deadlocks, more bits in the largest message is worse, with the
total board size as the tiebreak.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Optional, Union

from ..core.errors import MessageTooLarge, ProtocolViolation, SchedulerError
from ..core.execution import ExecutionState
from ..faults.spec import FaultSpec
from ..core.models import ModelSpec
from ..core.protocol import Protocol
from ..graphs.labeled_graph import LabeledGraph

__all__ = [
    "Witness",
    "AdversarySearch",
    "witness_rank",
    "worst_witness",
    "schedule_forces",
    "minimize_schedule",
    "minimize_witness",
]


@dataclass(frozen=True)
class Witness:
    """A concrete worst-case schedule found by an adversary search.

    Attributes
    ----------
    strategy:
        Name of the strategy that found it.
    schedule:
        The full adversary choice sequence, replayable from the initial
        configuration to a terminal one.
    bits / total_bits:
        Largest single message and whole-board size along the run.
    deadlock:
        The schedule ends in a corrupted (deadlocked) configuration.
    explored:
        Write events the search applied (``advance`` calls) — the cost
        of finding the witness, comparable across strategies.
    """

    strategy: str
    schedule: tuple[int, ...]
    bits: int
    total_bits: int
    deadlock: bool
    explored: int
    #: Shrunk form of ``schedule`` that still forces the recorded
    #: bits/deadlock (see :func:`minimize_witness`); ``None`` until a
    #: minimisation pass has run.  For deadlock witnesses this is a
    #: complete (terminal) schedule; for bits witnesses it is the
    #: minimal forcing *prefix* — the claim is established the moment
    #: the largest message lands, so trailing events carry no evidence.
    minimal_schedule: Optional[tuple[int, ...]] = None


def witness_rank(witness: Witness) -> tuple[bool, int, int]:
    """Sort key for adversarial badness (higher = worse for the protocol)."""
    return (witness.deadlock, witness.bits, witness.total_bits)


def worst_witness(*witnesses: Optional[Witness]) -> Witness:
    """The worst of the given witnesses (``None`` entries are skipped)."""
    found = [w for w in witnesses if w is not None]
    if not found:
        raise ValueError("no witnesses to compare")
    return max(found, key=witness_rank)


def schedule_forces(
    graph: LabeledGraph,
    protocol: Protocol,
    model: ModelSpec,
    schedule: tuple[int, ...],
    *,
    bits: int = 0,
    deadlock: bool = False,
    bit_budget: Optional[int] = None,
    faults: Union[None, str, FaultSpec] = None,
) -> bool:
    """Whether ``schedule`` (replayed from the initial configuration)
    still establishes the witnessed badness.

    * deadlock targets: the schedule must be valid and end in a
      terminal, deadlocked configuration;
    * bits targets: the schedule must be valid and write at least one
      message of ``>= bits`` bits.  It need not be terminal — "the
      adversary forces a B-bit message" is proven the moment that
      message lands, which is what lets bits witnesses shrink to
      prefixes.

    An inapplicable choice, a budget violation, or a protocol violation
    along the way makes the schedule not-forcing (``False``), never an
    exception: minimisation probes many invalid mutants by design.

    Faulted schedules carry their fault events inline; replay them under
    the same ``faults`` budget or the fault events are invalid choices.
    """
    state = ExecutionState.initial(graph, protocol, model, bit_budget,
                                   faults=faults)
    try:
        for choice in schedule:
            state.advance(choice)
    except (SchedulerError, MessageTooLarge, ProtocolViolation):
        return False
    if deadlock:
        return state.deadlocked
    return state.board.max_bits() >= bits


def _forcing_prefix(
    graph: LabeledGraph,
    protocol: Protocol,
    model: ModelSpec,
    schedule: tuple[int, ...],
    bits: int,
    bit_budget: Optional[int],
    faults: Union[None, str, FaultSpec] = None,
) -> tuple[int, ...]:
    """Truncate a (known-forcing) bits schedule at the first event that
    reaches the target."""
    if bits <= 0:
        return ()  # vacuous target: the empty prefix already forces it
    state = ExecutionState.initial(graph, protocol, model, bit_budget,
                                   faults=faults)
    for depth, choice in enumerate(schedule, start=1):
        state.advance(choice)
        # last_event_bits, not board.entries[-1]: after a crash or loss
        # event the board may be empty or stale.
        if state.last_event_bits >= bits:
            return schedule[:depth]
    raise AssertionError("schedule was checked to force the bits target")


def minimize_schedule(
    graph: LabeledGraph,
    protocol: Protocol,
    model: ModelSpec,
    schedule: tuple[int, ...],
    *,
    bits: int = 0,
    deadlock: bool = False,
    bit_budget: Optional[int] = None,
    faults: Union[None, str, FaultSpec] = None,
) -> tuple[int, ...]:
    """Greedy prefix/segment shrink of a witness schedule.

    Returns a subsequence of ``schedule`` that still forces the target
    (checked by full replay at every step, so the result is replayable
    evidence exactly like the original).  The shrink is ddmin-style:
    bits targets are first cut to the shortest forcing prefix, then
    segments of halving length are deleted greedily while the property
    survives.  The result is 1-minimal — no single remaining event can
    be dropped — which is the useful guarantee for narration; it is not
    necessarily a globally shortest subsequence.

    Raises :class:`ValueError` when ``schedule`` does not force the
    target in the first place (a witness that does not reproduce is a
    bug upstream, not a minimisation concern).
    """
    current = tuple(schedule)
    if not schedule_forces(graph, protocol, model, current,
                           bits=bits, deadlock=deadlock,
                           bit_budget=bit_budget, faults=faults):
        raise ValueError(
            f"schedule {current} does not force the target "
            f"({'deadlock' if deadlock else f'{bits} bits'})"
        )
    if not deadlock:
        current = _forcing_prefix(graph, protocol, model, current, bits,
                                  bit_budget, faults=faults)
    size = max(1, len(current) // 2)
    while size >= 1:
        index = 0
        while index + size <= len(current):
            candidate = current[:index] + current[index + size:]
            if schedule_forces(graph, protocol, model, candidate,
                               bits=bits, deadlock=deadlock,
                               bit_budget=bit_budget, faults=faults):
                current = candidate
                if not deadlock:
                    current = _forcing_prefix(
                        graph, protocol, model, current, bits, bit_budget,
                        faults=faults,
                    )
            else:
                index += size
        size //= 2
    return current


def minimize_witness(
    graph: LabeledGraph,
    protocol: Protocol,
    model: ModelSpec,
    witness: Witness,
    bit_budget: Optional[int] = None,
    faults: Union[None, str, FaultSpec] = None,
) -> Witness:
    """Attach a minimal forcing schedule to ``witness``.

    The raw schedule is kept untouched (it is the replayable terminal
    run); ``minimal_schedule`` becomes the shrunk form — targeting the
    deadlock when the witness deadlocked, the recorded ``bits``
    otherwise.
    """
    minimal = minimize_schedule(
        graph, protocol, model, witness.schedule,
        bits=witness.bits, deadlock=witness.deadlock,
        bit_budget=bit_budget, faults=faults,
    )
    return replace(witness, minimal_schedule=minimal)


class AdversarySearch(ABC):
    """Strategy interface: search the schedule tree for a worst witness.

    Implementations must be deterministic for fixed construction
    parameters (seeds are explicit) and picklable, so stress plans can
    fan searches across worker processes.  Since the search-kernel
    refactor every strategy is a thin *policy* over the shared kernel
    (:mod:`repro.adversaries.kernel`): budgets, seeded RNG streams,
    stats and the optional shared transposition table all come from the
    :class:`~repro.adversaries.kernel.SearchContext` threaded through
    ``search`` — one context per stress cell is what lets strategies
    reuse each other's pruning knowledge.

    A strategy records each terminal leaf it reaches through
    ``_witness(state, explored, best)``: the leaf replaces the
    incumbent only when it ranks *strictly* worse by
    :func:`witness_rank`, so of tied leaves the first one reached is
    kept, with its ``explored``.  No witness is built for a leaf that
    does not replace the incumbent.
    """

    name: str = "adversary-search"

    @abstractmethod
    def search(
        self,
        graph: LabeledGraph,
        protocol: Protocol,
        model: ModelSpec,
        bit_budget: Optional[int] = None,
        *,
        context=None,
        faults: Union[None, str, FaultSpec] = None,
    ) -> Witness:
        """Return the worst witness schedule this strategy can find.

        ``bit_budget`` is enforced during the search exactly as in
        normal execution: a message over budget raises
        :class:`~repro.core.errors.MessageTooLarge` (which *is* a worst
        case — the caller sees the violating schedule in the exception).

        ``context`` is an optional
        :class:`~repro.adversaries.kernel.SearchContext`; strategies
        sharing one reuse its transposition table and accumulate into
        its stats.  ``None`` gives the search a fresh private context —
        behaviour is then identical to the pre-kernel strategies.
        """

    def _witness(self, state: ExecutionState, explored: int,
                 best: Optional[Witness] = None) -> Witness:
        """Freeze a terminal state into a witness (no output computation —
        scoring only needs the board accounting).

        With an incumbent ``best`` this is the one leaf rule every
        strategy records terminal leaves by: the leaf's ``(deadlock, bits, total_bits)``
        is compared with :func:`witness_rank` of ``best`` first, and a
        witness is built only when the leaf ranks *strictly* worse.  A
        tie keeps ``best`` — and its ``explored`` — exactly as
        ``worst_witness(best, leaf)`` would, without paying for a
        witness that is thrown away.
        """
        deadlock = state.deadlocked
        sizes = [entry.bits for entry in state.board.entries]
        bits = max(sizes, default=0)
        total = sum(sizes)
        if best is not None and (deadlock, bits, total) <= witness_rank(best):
            return best
        return Witness(self.name, state.schedule, bits, total, deadlock,
                       explored)
