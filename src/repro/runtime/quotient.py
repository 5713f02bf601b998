"""Exhaustive folds over the quotient configuration DAG.

An exhaustive cell folds every leaf of the schedule tree into its
report: ``n!`` leaves for a SIMASYNC cell.  But under SIMASYNC every
node activates in round 0 and freezes its message, so what can still
happen below a configuration — the candidates, every message size,
every reachable terminal board *multiset* — depends only on the written
and crashed sets, the remaining fault budgets and the board multiset.
For a protocol declaring
:attr:`~repro.core.protocol.Protocol.output_order_invariant` the output
does too.  Configurations with equal
:meth:`ExecutionState.config_key(quotient=True)
<repro.core.execution.ExecutionState.config_key>` therefore root
identical subtrees, and the cell can fold each distinct configuration
once — ``2^n`` nodes instead of ``n!`` leaves for BUILD.  This is
partial-order reduction (Godefroid, *Partial-Order Methods for the
Verification of Concurrent Systems*, 1996), certified by the model and
the protocol's flag rather than inferred.

:func:`ineligible` names the first condition a cell fails; cells that
pass all of them run a :class:`QuotientFold` wherever the tree walk
would fold leaves into a report (the serial cell body and each prefix
of a shard lot).  The fold is field-identical to the tree walk:

* ``executions`` is a path count and the bit maxima are maxima;
* the worst-bits and first-deadlock witnesses are first-in-DFS
  suffixes (a lexicographic DP over each node's ordered edges),
  replayed into :class:`RunResult` objects through
  :func:`~repro.core.execution.replay_schedule`;
* failures are enumerated in DFS order, descending only into nodes
  whose summary holds failures, so a correct cell costs
  O(configurations);
* an exception (a budget violation, a fault-free decode error) surfaces
  at the same edge: every tree edge before it lies in a subtree the
  DAG walk already folded without raising, so the first raising edge
  is reached along the same path.

The checker runs once per terminal configuration, so it must be a
function of ``(graph, output)``.  A wrongly set flag (or a checker
reading the write order) would fool the fold, so every fold replays
:data:`GUARD_SAMPLES` seeded random complete schedules below its root
through a fresh, unmemoised state and compares each against the DAG's
terminal summary; a mismatch raises :class:`ProtocolViolation`.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.errors import ProtocolViolation
from ..core.execution import ExecutionState, RunResult, replay_schedule
from .results import Failure

__all__ = ["GUARD_SAMPLES", "ineligible", "QuotientFold"]

#: Random complete schedules each fold replays against its summary.
GUARD_SAMPLES = 3


def ineligible(task) -> Optional[str]:
    """The first condition barring ``task`` from the DAG fold, or
    ``None`` when it qualifies.

    The fold needs a full exhaustive enumeration folded only into a
    report (no kept runs, a checker), a SIMASYNC model, and a protocol
    whose output reads only the payload multiset.
    """
    if task.mode != "exhaustive":
        return "mode"
    if task.keep_runs:
        return "keep-runs"
    if task.checker is None:
        return "no-checker"
    model = task.model
    if not (model.simultaneous and model.asynchronous):
        return "model"
    if not task.protocol.output_order_invariant:
        return "order-variant"
    return None


class _Node:
    """Summary of every leaf below one quotient configuration.

    ``paths`` counts the leaves (schedules).  ``bits`` is the largest
    message over recorded leaves (``-1`` when none is recorded: only
    deadlocks under ``allow_deadlock``), ``worst`` the largest over all
    leaves with ``worst_path`` its first suffix in DFS order, and
    ``deadlock_path`` the first deadlocked suffix (``None`` if none).
    A terminal node has no ``edges`` and carries its ``leaf`` verdict
    ``(success, bits, output, output_error, correct)`` and failure
    ``kind``; an inner node holds its ordered ``(choice, child)``
    edges.
    """

    __slots__ = ("paths", "bits", "worst", "worst_path", "deadlock_path",
                 "failures", "edges", "leaf", "kind")


class QuotientFold:
    """One memoised DAG fold for a cell, shared by every root it folds
    below (the prefixes of a shard lot); ``configurations`` and
    ``edges`` count the work done."""

    def __init__(self, task) -> None:
        self.task = task
        self.state = ExecutionState.initial(
            task.graph, task.protocol, task.model, task.bit_budget,
            faults=task.faults).memoize_outputs()
        self.memo: dict = {}
        self.edges = 0

    @property
    def configurations(self) -> int:
        return len(self.memo)

    def fold_below(self, prefix: tuple, report
                   ) -> tuple[Optional[RunResult], Optional[RunResult]]:
        """Fold every leaf below schedule ``prefix`` into ``report``
        exactly as ``ExecutionTask._fold_results`` folds the tree
        walk's results, and return the same ``(worst,
        first_deadlock)`` pair (``None`` unless the cell captures
        witnesses)."""
        task = self.task
        state = self.state
        state.restore(0)
        for choice in prefix:
            state.advance(choice)
        root = self._fold(state)
        self._guard(prefix)
        report.executions += root.paths
        if root.bits >= 0:
            n = task.graph.n
            report.max_message_bits = max(report.max_message_bits, root.bits)
            report.max_bits_by_n[n] = max(report.max_bits_by_n.get(n, 0),
                                          root.bits)
        if root.failures:
            self._failures(root, tuple(prefix), report.failures)
        if not task.capture_witnesses:
            return None, None
        worst = self._replay(prefix + root.worst_path)
        first_deadlock = None
        if root.deadlock_path is not None:
            first_deadlock = (
                worst if root.deadlock_path == root.worst_path
                else self._replay(prefix + root.deadlock_path))
        return worst, first_deadlock

    # -- the fold --------------------------------------------------------

    def _fold(self, state: ExecutionState) -> _Node:
        key = state.config_key(quotient=True)
        node = self.memo.get(key)
        if node is not None:
            return node
        if state.terminal:
            node = self._terminal(state)
        else:
            checkpoint = state.depth
            edges = []
            for choice in state.candidates:
                state.advance(choice)
                self.edges += 1
                edges.append((choice, self._fold(state)))
                state.restore(checkpoint)
            node = self._inner(tuple(edges))
        self.memo[key] = node
        return node

    def _verdict(self, result: RunResult) -> tuple:
        """``(leaf, kind)``: what the guard compares, and the failure
        kind ``report.record`` would file (``None`` when correct or
        unrecorded)."""
        task = self.task
        recorded = not (result.corrupted and task.allow_deadlock)
        correct = task._check(result) if recorded else None
        kind = None
        if recorded:
            if result.corrupted:
                kind = "deadlock"
            elif not correct:
                kind = "wrong-output"
        leaf = (result.success, result.max_message_bits, result.output,
                result.output_error, correct)
        return leaf, kind

    def _terminal(self, state: ExecutionState) -> _Node:
        result = state.result()
        node = _Node()
        node.leaf, node.kind = self._verdict(result)
        node.paths = 1
        node.worst = result.max_message_bits
        recorded = not (result.corrupted and self.task.allow_deadlock)
        node.bits = node.worst if recorded else -1
        node.worst_path = ()
        node.deadlock_path = () if result.corrupted else None
        node.failures = 1 if node.kind is not None else 0
        node.edges = None
        return node

    @staticmethod
    def _inner(edges: tuple) -> _Node:
        node = _Node()
        node.edges = edges
        node.leaf = node.kind = None
        node.paths = node.failures = 0
        node.bits = node.worst = -1
        node.worst_path = node.deadlock_path = None
        for choice, child in edges:
            node.paths += child.paths
            node.failures += child.failures
            node.bits = max(node.bits, child.bits)
            if child.worst > node.worst:
                node.worst = child.worst
                node.worst_path = (choice,) + child.worst_path
            if node.deadlock_path is None and child.deadlock_path is not None:
                node.deadlock_path = (choice,) + child.deadlock_path
        return node

    def _failures(self, node: _Node, path: tuple, out: list) -> None:
        """Append one :class:`Failure` per failing leaf below ``node``,
        in DFS order."""
        if node.edges is None:
            output = node.leaf[2] if node.kind == "wrong-output" else None
            out.append(Failure(self.task.graph, path, output, node.kind))
            return
        for choice, child in node.edges:
            if child.failures:
                self._failures(child, path + (choice,), out)

    def _replay(self, schedule: tuple) -> RunResult:
        task = self.task
        return replay_schedule(task.graph, task.protocol, task.model,
                               schedule, task.bit_budget, faults=task.faults)

    # -- the mis-flag guard ----------------------------------------------

    def _guard(self, prefix: tuple) -> None:
        """Replay seeded random complete schedules below ``prefix`` on a
        fresh, unmemoised state and check each against the terminal
        summary the fold reached it through."""
        task = self.task
        fields = ("success", "bits", "output", "output error",
                  "checker verdict")
        rng = random.Random(f"{task.graph.n}:{tuple(prefix)}")
        for _ in range(GUARD_SAMPLES):
            state = ExecutionState.initial(
                task.graph, task.protocol, task.model, task.bit_budget,
                faults=task.faults)
            for choice in prefix:
                state.advance(choice)
            while not state.terminal:
                state.advance(rng.choice(state.candidates))
            node = self.memo[state.config_key(quotient=True)]
            leaf, _ = self._verdict(state.result())
            for name, want, got in zip(fields, node.leaf, leaf):
                if not want == got:
                    raise ProtocolViolation(
                        f"{task.protocol.name} declares "
                        f"output_order_invariant, but schedule "
                        f"{state.schedule} reaches a configuration whose "
                        f"{name} ({got!r}) differs from the one folded for "
                        f"its board multiset ({want!r}); the quotient DAG "
                        "is unsound for this protocol or checker"
                    )
