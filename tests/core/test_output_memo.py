"""The per-cell output memo: engaged exactly where it may be, invisible.

Protocols declaring ``output_order_invariant`` have their output
decoded once per distinct board multiset in a cell; every other
protocol — unflagged, or stateful (``fresh()`` returns a new object) —
is decoded once per leaf, as before.  The first half of this module
counts ``output`` calls, so a memo that silently switched off (or on)
shows up as a wrong count; the second half pins that reports and runs
stay field-identical to the naive ``_all_executions_replay`` reference
across faults × jobs, so a memo that served a wrong value shows
up as a diff.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.analysis.checkers import AcceptAny, default_checker
from repro.core.execution import ExecutionState
from repro.core.models import SIMASYNC
from repro.core.protocol import NodeView, Protocol
from repro.core.simulator import _all_executions_replay, all_executions
from repro.graphs import generators as gen
from repro.protocols.build import DegenerateBuildProtocol
from repro.runtime import plan as plan_module
from repro.runtime.backends import ProcessPoolBackend, SerialBackend
from repro.runtime.plan import ExecutionPlan


class CountingDecode(Protocol):
    """SIMASYNC-legal stub that records every ``output`` call."""

    name = "counting-decode"
    output_order_invariant = True

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def message(self, view: NodeView):
        return (view.node, view.degree)

    def output(self, board, n):
        self.calls.append(tuple(board))
        return tuple(sorted(board))


class UnflaggedDecode(CountingDecode):
    name = "unflagged-decode"
    output_order_invariant = False


class FreshEachRun(CountingDecode):
    """A stateful adapter: a new object per execution, one call log."""

    name = "fresh-each-run"

    def fresh(self) -> "FreshEachRun":
        clone = FreshEachRun()
        clone.calls = self.calls
        return clone


class OrderedOutput(Protocol):
    """Unflagged and order-dependent: a wrongly engaged memo would hand
    every schedule the first schedule's output."""

    name = "ordered-output"

    def message(self, view: NodeView):
        return (view.node, view.degree)

    def output(self, board, n):
        return tuple(board)


GRAPH = gen.random_k_degenerate(5, 2, seed=0)


def _multisets(results) -> set:
    return {tuple(sorted(e.payload for e in r.board.entries))
            for r in results if r.success}


@pytest.mark.parametrize("faults", [None, "crash:1,dup:1"])
class TestEngagement:
    def test_flagged_decodes_once_per_multiset(self, faults):
        proto = CountingDecode()
        results = list(all_executions(GRAPH, proto, SIMASYNC, faults=faults))
        assert len(proto.calls) == len(_multisets(results))
        assert len(proto.calls) < sum(r.success for r in results)

    @pytest.mark.parametrize("cls", [UnflaggedDecode, FreshEachRun])
    def test_unflagged_and_stateful_decode_every_leaf(self, faults, cls):
        proto = cls()
        results = list(all_executions(GRAPH, proto, SIMASYNC, faults=faults))
        assert len(proto.calls) == sum(r.success for r in results)


def test_copies_share_the_memo():
    proto = CountingDecode()
    state = ExecutionState.initial(GRAPH, proto, SIMASYNC).memoize_outputs()
    fork = state.copy()
    for live in (state, fork):
        for choice in sorted(live.candidates, reverse=live is fork):
            live.advance(choice)
    assert state.result().output == fork.result().output
    assert len(proto.calls) == 1


class RaisingDecode(CountingDecode):
    name = "raising-decode"

    def output(self, board, n):
        self.calls.append(tuple(board))
        raise ValueError("undecodable")


def test_one_shot_states_decode_without_a_memo():
    proto = CountingDecode()
    for _ in range(2):
        state = ExecutionState.initial(GRAPH, proto, SIMASYNC)
        while not state.terminal:
            state.advance(state.candidates[0])
        state.result()
    assert len(proto.calls) == 2 and not state._frozen_keys


def test_fault_free_decode_errors_raise_every_time():
    proto = RaisingDecode()
    state = ExecutionState.initial(GRAPH, proto, SIMASYNC).memoize_outputs()
    while not state.terminal:
        state.advance(state.candidates[0])
    for _ in range(2):
        with pytest.raises(ValueError, match="undecodable"):
            state.result()
    assert len(proto.calls) == 2


def test_faulted_decode_errors_are_memoised_verdicts():
    proto = RaisingDecode()
    results = list(all_executions(GRAPH, proto, SIMASYNC, faults="crash:1"))
    assert all(r.output_error == "ValueError: undecodable"
               for r in results if r.success)
    assert len(proto.calls) == len(_multisets(results))


# -- field identity against the replay reference ------------------------

N6 = gen.random_k_degenerate(6, 2, seed=0)


def _plan(proto, checker, faults):
    return ExecutionPlan.build(
        proto, [SIMASYNC], [N6], mode="stress", checker=checker,
        exhaustive_threshold=6, faults=faults, keep_runs=True)


def _outcome_key(outcome):
    body = json.dumps(vars(outcome.report), sort_keys=True, default=repr)
    return (outcome.index, body, outcome.runs)


@functools.lru_cache(maxsize=None)
def _reference(kind: str, faults):
    """The cell executed with ``_all_executions_replay`` enumerating."""
    proto, checker = _CELLS[kind]
    task = _plan(proto, checker, faults).tasks[0]
    original = plan_module.all_executions

    def replay(graph, protocol, model, bit_budget=None, limit=None,
               faults=None):
        assert limit is None
        return _all_executions_replay(graph, protocol, model, bit_budget,
                                      faults=faults)

    plan_module.all_executions = replay
    try:
        return _outcome_key(task.execute())
    finally:
        plan_module.all_executions = original


_CELLS = {
    "build": (DegenerateBuildProtocol(2), default_checker("build-degenerate")),
    "ordered": (OrderedOutput(), AcceptAny()),
}


@pytest.mark.parametrize("backend", ["serial", "jobs2"])
@pytest.mark.parametrize("kind,faults", [
    ("build", None), ("build", "crash:1"), ("ordered", None),
])
def test_reports_match_replay_reference(kind, faults, backend):
    proto, checker = _CELLS[kind]
    plan = _plan(proto, checker, faults)
    runner = (SerialBackend() if backend == "serial"
              else ProcessPoolBackend(jobs=2, chunk_size=1))
    [outcome] = list(runner.run(plan.tasks))
    assert _outcome_key(outcome) == _reference(kind, faults)


def test_faulted_build_cell_records_wrong_outputs():
    """The reference really exercises the memo's faulted path: the
    crash cell has both correct and wrong-output verdicts."""
    plan = _plan(*_CELLS["build"], "crash:1")
    report = plan.tasks[0].execute().report
    assert report.failures and len(report.failures) < report.executions
