"""Round-based execution drivers for the four whiteboard models.

Semantics (Section 2 of the paper, observable form):

1. **Activation round.**  In simultaneous models every awake node becomes
   active immediately; in free models each awake node decides from the
   (empty) whiteboard.  In asynchronous models the node's single message
   is computed *now* and frozen.
2. **Write events.**  While unwritten nodes remain: the adversary picks
   one active, unwritten node; its message (frozen value in asynchronous
   models, recomputed from the current board in synchronous ones) is
   appended to the whiteboard and the node terminates.  After each write,
   awake nodes re-examine the board and may activate (free models).
3. **Deadlock.**  If unwritten nodes remain but none is active, the
   configuration is *corrupted* (the paper's failed final configuration)
   and no output is produced.

Those semantics live in one place — the
:class:`~repro.core.execution.ExecutionState` step machine — and this
module is its classic drivers:

* :func:`run` walks one schedule chosen live by a
  :class:`~repro.core.schedulers.Scheduler`;
* :func:`terminal_states` is the one depth-first walker of the schedule
  tree: an explicit stack of ``(depth, remaining choices)`` frames
  steers a single live state through every terminal configuration
  below it, ascending choice order at every branch.  Each branch
  applies one choice and, before the next sibling, rolls back to the
  frame's depth with
  :meth:`~repro.core.execution.ExecutionState.restore` — an O(1)
  journal undo, so every edge of the tree is executed exactly once;
* :func:`all_executions` turns that walk into one :class:`RunResult`
  per schedule — the paper's "for all adversaries" quantifier as a
  finite check on small graphs.  Exhaustive plan cells run it (and the
  cell-level lot sharding of :mod:`repro.runtime.sharding` runs the
  same walker below each schedule prefix of a lot) unless the cell
  qualifies for the quotient-DAG fold of :mod:`repro.runtime.quotient`:
  a SIMASYNC cell of an ``output_order_invariant`` protocol folded only
  into a report visits each configuration (keyed by
  ``config_key(quotient=True)``) once instead of each schedule, with
  reports field-identical to this walk;
* :func:`count_executions` sizes the schedule tree with the same
  walker, building no results.

Guided searches that *don't* want to visit the whole tree (greedy,
beam, branch-and-bound adversaries) drive the same machine from
:mod:`repro.adversaries`.  ``_all_executions_replay`` remains as the
deliberately naive replay-from-scratch reference: equivalence tests and
the perf-regression gate compare the engine against it.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Optional, Union

from ..faults.spec import FaultSpec
from ..graphs.labeled_graph import LabeledGraph
from .execution import ExecutionState, RunResult
from .models import ModelSpec
from .protocol import Protocol
from .schedulers import Scheduler

__all__ = ["RunResult", "run", "terminal_states", "all_executions",
           "count_executions"]


def run(
    graph: LabeledGraph,
    protocol: Protocol,
    model: ModelSpec,
    scheduler: Scheduler,
    bit_budget: Optional[int] = None,
    faults: Union[None, str, FaultSpec] = None,
) -> RunResult:
    """Execute ``protocol`` on ``graph`` under ``model`` with the given
    adversary.

    Parameters
    ----------
    bit_budget:
        Optional hard cap (in bits) on every message; exceeding it raises
        :class:`~repro.core.errors.MessageTooLarge`.  ``None`` records
        sizes without enforcing.
    faults:
        Optional fault budget (spec string or
        :class:`~repro.faults.spec.FaultSpec`); fault events then appear
        among the scheduler's candidates as negative integers.
    """
    state = ExecutionState.initial(graph, protocol, model, bit_budget,
                                   faults=faults)
    sched = scheduler.fresh()
    while not state.terminal:
        writer = sched.choose(state.candidates, state.board,
                              state.activation_round)
        state.advance(writer)
    return state.result()


def terminal_states(state: ExecutionState) -> Iterator[ExecutionState]:
    """Yield ``state`` itself at every terminal configuration below it.

    Depth-first, ascending choice order at every branch — the order of
    :func:`all_executions`.  The yielded object is the one live state,
    positioned at a leaf: read it (``result()``, ``depth``, ...) before
    advancing the iterator, and never step it yourself.  Once the
    iterator is exhausted the state is back at the configuration it was
    entered with; an exception raised by a step propagates with the
    state left where it failed.
    """
    if state.terminal:
        yield state
        return
    entry = state.depth
    frames = [(entry, iter(state.candidates))]
    while frames:
        checkpoint, choices = frames[-1]
        choice = next(choices, None)  # choices are ints, never None
        if choice is None:
            frames.pop()
            continue
        if state.depth != checkpoint:
            state.restore(checkpoint)
        state.advance(choice)
        if state.terminal:
            yield state
        else:
            frames.append((state.depth, iter(state.candidates)))
    if state.depth != entry:
        state.restore(entry)


def all_executions(
    graph: LabeledGraph,
    protocol: Protocol,
    model: ModelSpec,
    bit_budget: Optional[int] = None,
    limit: Optional[int] = None,
    faults: Union[None, str, FaultSpec] = None,
) -> Iterator[RunResult]:
    """Enumerate every execution (one per distinct adversary schedule).

    Depth-first over the tree of adversary choices, ascending choice
    order at every branch.  For simultaneous models on an ``n``-node
    graph this yields exactly ``n!`` runs, so cap usage at ``n <= 7`` or
    pass ``limit``.

    One live :class:`~repro.core.execution.ExecutionState` is steered
    through the whole tree by :func:`terminal_states`, the explicit-stack
    walker, and frozen into a :class:`RunResult` at each leaf as the
    caller asks for it — nothing is held back, so a consumer that folds
    results as they stream keeps one run alive at a time.  Each
    backtrack is an O(1) journal undo, and the walk produces the same
    results in the same order as ``_all_executions_replay`` (pinned by
    tests).
    Protocols declaring ``output_order_invariant`` decode each distinct
    board multiset once (see :func:`~repro.core.execution.board_output`).

    With a ``faults`` budget the same DFS enumerates the *joint* fault ×
    schedule space — every way the adversary can interleave crashes,
    losses, and duplications with writes — which is the exact ground
    truth the guided fault adversaries are tested against.
    """
    state = ExecutionState.initial(graph, protocol, model, bit_budget,
                                   faults=faults).memoize_outputs()
    produced = 0
    for leaf in terminal_states(state):
        yield leaf.result()
        produced += 1
        if limit is not None and produced >= limit:
            return


def _all_executions_replay(
    graph: LabeledGraph,
    protocol: Protocol,
    model: ModelSpec,
    bit_budget: Optional[int],
    faults: Union[None, str, FaultSpec] = None,
) -> Iterator[RunResult]:
    """Replay-from-scratch DFS — the naive correctness reference.

    Every probed prefix rebuilds a fresh state and replays each choice,
    so each schedule-tree edge executes once per node below it.  Kept
    (not used by :func:`all_executions`) as the equivalence baseline for
    tests and the same-machine perf-regression gate.
    """
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        state = ExecutionState.initial(graph, protocol, model, bit_budget,
                                       faults=faults)
        for choice in prefix:
            state.advance(choice)
        if state.terminal:
            yield state.result()
        else:
            # Reversed so the natural (ascending) order is explored first.
            for c in reversed(state.candidates):
                stack.append(prefix + (c,))


def count_executions(
    graph: LabeledGraph,
    protocol: Protocol,
    model: ModelSpec,
    faults: Union[None, str, FaultSpec] = None,
) -> int:
    """Number of distinct schedules (size of the adversary's choice tree).

    Counts the leaves of :func:`terminal_states` — the same walk as
    :func:`all_executions`, with no output decoded and no
    :class:`RunResult` built.
    """
    state = ExecutionState.initial(graph, protocol, model, faults=faults)
    return sum(1 for _ in terminal_states(state))
