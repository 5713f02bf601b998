"""The quotient-DAG fold of exhaustive SIMASYNC cells, pinned to the tree.

A qualifying exhaustive cell (no kept runs, a checker, SIMASYNC, an
``output_order_invariant`` protocol) folds each quotient
configuration once instead of walking every schedule.  Its report must
equal the tree walk's field for field — failure order and outputs,
witnesses, ``max_bits_by_n``, ``executions`` — on both backends.  The
reference is the same task with ``keep_runs=True``, which folds
``all_executions`` through ``ExecutionTask._fold_results``.  The second
half pins the mis-flag guard and the fold's observability.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.checkers import default_checker
from repro.core.errors import MessageTooLarge, ProtocolViolation
from repro.core.models import SIMASYNC
from repro.core.simulator import count_executions
from repro.graphs import generators as gen
from repro.protocols.build import DegenerateBuildProtocol, ForestBuildProtocol
from repro.protocols.triangle import DegenerateTriangleProtocol
from repro.runtime import quotient
from repro.runtime.backends import ProcessPoolBackend, SerialBackend
from repro.runtime.plan import ExecutionPlan
from repro.telemetry import Tracer
from repro.telemetry import tracer as _tracer

#: BUILD-family fixtures: (census key, protocol, graph factory).
FIXTURES = {
    "build-degenerate": (DegenerateBuildProtocol(2),
                         lambda n: gen.random_k_degenerate(n, 2, seed=0)),
    "build-forest": (ForestBuildProtocol(),
                     lambda n: gen.random_tree(n, seed=1)),
    "triangle-degenerate": (DegenerateTriangleProtocol(2),
                            lambda n: gen.random_k_degenerate(n, 2, seed=3)),
}

FAULTS = [None, "crash:1", "crash:1,loss:1", "dup:1"]


def _task(key, n, faults=None, **overrides):
    proto, graph = FIXTURES[key]
    [task] = ExecutionPlan.build(
        proto, [SIMASYNC], [graph(n)], mode="stress",
        checker=default_checker(key), exhaustive_threshold=n,
        faults=faults).tasks
    return replace(task, **overrides)


def _tree_report(task):
    """The tree walk's report for ``task``: the kept-runs path folds
    ``all_executions`` through ``_fold_results``."""
    reference = replace(task, keep_runs=True)
    assert quotient.ineligible(reference) == "keep-runs"
    return reference.execute().report


def _dag_report(task, backend):
    assert quotient.ineligible(task) is None
    runner = (SerialBackend() if backend == "serial"
              else ProcessPoolBackend(jobs=2, chunk_size=1))
    [outcome] = list(runner.run([task]))
    return outcome.report


def _assert_field_identical(dag, tree):
    assert dag.executions == tree.executions
    assert dag.max_bits_by_n == tree.max_bits_by_n
    assert dag.failures == tree.failures
    assert dag.witnesses == tree.witnesses
    assert dag == tree


@functools.lru_cache(maxsize=None)
def _reference(key, n, faults):
    return _tree_report(_task(key, n, faults))


@pytest.mark.parametrize("backend", ["serial", "jobs2"])
@pytest.mark.parametrize("faults", FAULTS)
@pytest.mark.parametrize("key", sorted(FIXTURES))
def test_dag_matches_tree_walk(key, faults, backend):
    n = 6 if faults is not None else 7
    report = _dag_report(_task(key, n, faults), backend)
    _assert_field_identical(report, _reference(key, n, faults))


@pytest.mark.parametrize("backend", ["serial", "jobs2"])
def test_dag_matches_tree_walk_at_n8(backend):
    report = _dag_report(_task("build-degenerate", 8), backend)
    _assert_field_identical(report, _reference("build-degenerate", 8, None))
    assert report.executions == 40320


def test_faulted_cell_has_both_verdicts():
    """The faulted fixtures really exercise failure enumeration."""
    report = _reference("build-degenerate", 6, "crash:1,loss:1")
    assert report.failures and len(report.failures) < report.executions


class AlwaysWrong:
    """Every leaf fails, so the DFS order of the failure list is pinned
    over the whole tree."""

    def __call__(self, graph, output, result) -> bool:
        return False


@pytest.mark.parametrize("backend", ["serial", "jobs2"])
@pytest.mark.parametrize("faults", [None, "crash:1"])
def test_always_false_checker_pins_failure_order(faults, backend):
    task = _task("build-degenerate", 6, faults, checker=AlwaysWrong())
    report = _dag_report(task, backend)
    tree = _tree_report(task)
    _assert_field_identical(report, tree)
    assert len(report.failures) == report.executions


@pytest.mark.parametrize("faults", [None, "crash:1,loss:1"])
def test_allow_deadlock(faults):
    task = _task("build-degenerate", 5, faults, allow_deadlock=True)
    _assert_field_identical(_dag_report(task, "serial"), _tree_report(task))


@pytest.mark.parametrize("faults", [None, "crash:1,loss:1"])
def test_bit_budget_violation_raises_like_the_tree(faults):
    """A budget under the largest message raises the same
    ``MessageTooLarge`` (same node, same bits) as the tree walk."""
    task = _task("build-degenerate", 6, faults)
    largest = _reference("build-degenerate", 6, faults).max_message_bits
    task = replace(task, bit_budget=largest - 1)
    with pytest.raises(MessageTooLarge) as tree:
        replace(task, keep_runs=True).execute()
    with pytest.raises(MessageTooLarge) as dag:
        task.execute()
    assert (dag.value.node, dag.value.bits, dag.value.budget) == (
        tree.value.node, tree.value.bits, tree.value.budget)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=6),
       k=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=10_000),
       faults=st.sampled_from([None, "crash:1", "dup:1", "loss:1"]))
def test_random_k_degenerate_property(n, k, seed, faults):
    proto = DegenerateBuildProtocol(k)
    graph = gen.random_k_degenerate(n, k, seed=seed)
    [task] = ExecutionPlan.build(
        proto, [SIMASYNC], [graph], mode="stress",
        checker=default_checker(proto), exhaustive_threshold=n,
        faults=faults).tasks
    _assert_field_identical(task.execute().report, _tree_report(task))


def test_executions_count_every_schedule():
    task = _task("build-degenerate", 6, "crash:1")
    report = task.execute().report
    assert report.executions == count_executions(
        task.graph, task.protocol, SIMASYNC, faults="crash:1")


# -- eligibility ----------------------------------------------------------


def test_ineligible_names_the_first_failed_condition():
    task = _task("build-degenerate", 5)
    assert quotient.ineligible(task) is None
    cases = {
        "mode": {"mode": "search"},
        "keep-runs": {"keep_runs": True},
        "no-checker": {"checker": None},
        "model": {"model_name": "SIMSYNC"},
        "order-variant": {"protocol": OrderVariant()},
    }
    for reason, patch in cases.items():
        assert quotient.ineligible(replace(task, **patch)) == reason


class OrderVariant(DegenerateBuildProtocol):
    output_order_invariant = False

    def __init__(self) -> None:
        super().__init__(2)


# -- the mis-flag guard ---------------------------------------------------


class WriteOrderBuild(DegenerateBuildProtocol):
    """Wrongly flagged: the output leaks the first writer's identifier,
    so two schedules reaching one board multiset decode differently."""

    def __init__(self) -> None:
        super().__init__(2)
        self.name = "write-order-build"

    def output(self, board, n):
        return (board.payloads[0][0], super().output(board, n))


class WriteOrderChecker:
    """Reads ``result.write_order``: only the ascending schedule passes."""

    def __call__(self, graph, output, result) -> bool:
        return result.write_order == tuple(sorted(result.write_order))


@pytest.mark.parametrize("backend", ["serial", "jobs2"])
def test_misflagged_protocol_trips_the_guard(backend):
    task = _task("build-degenerate", 6, protocol=WriteOrderBuild())
    runner = (SerialBackend() if backend == "serial"
              else ProcessPoolBackend(jobs=2, chunk_size=1))
    with pytest.raises(ProtocolViolation, match="output_order_invariant"):
        list(runner.run([task]))


def test_write_order_checker_trips_the_guard():
    task = _task("build-degenerate", 6, checker=WriteOrderChecker())
    with pytest.raises(ProtocolViolation, match="checker verdict"):
        task.execute()


def test_guard_is_deterministic():
    """The guard's schedules are seeded from the root and ``n``: the
    same cell trips the same way every time."""
    task = _task("build-degenerate", 6, protocol=WriteOrderBuild())
    messages = set()
    for _ in range(2):
        with pytest.raises(ProtocolViolation) as err:
            task.execute()
        messages.add(str(err.value))
    assert len(messages) == 1


# -- observability --------------------------------------------------------


@pytest.fixture
def traced():
    """Trace one task in-process, restoring the tracing state after."""
    saved = _tracer._enabled
    _tracer._enabled = True
    try:
        yield
    finally:
        _tracer._enabled = saved


def _fold_span(outcome):
    [span] = [s for s in outcome.telemetry.spans if s.name == "fold"]
    return dict(span.attrs)


def test_fold_span_names_the_walk(traced):
    task = _task("build-degenerate", 5)
    dag = task.execute()
    assert _fold_span(dag)["walk"] == "dag"
    metrics = dag.telemetry.metrics
    assert metrics["exhaustive.configurations"]["value"] == 2 ** 5
    assert metrics["exhaustive.edges"]["value"] == 5 * 2 ** 4
    tree = replace(task, keep_runs=True).execute()
    attrs = _fold_span(tree)
    assert (attrs["walk"], attrs["reason"]) == ("tree", "keep-runs")
    assert "exhaustive.configurations" not in tree.telemetry.metrics


def test_sharded_cells_count_configurations_in_the_parent():
    from repro.runtime import sharding
    from repro.runtime.backends import _execute_item

    task = _task("build-degenerate", 6)
    items, layout = sharding.lower([task], 2)
    assert layout[0][0] == "shard"
    outputs = [_execute_item(item) for item in items]
    parent = Tracer()
    with _tracer.activated(parent):
        [outcome] = list(sharding.reassemble([task], layout, outputs))
    counters = parent.metrics.to_jsonable()
    assert counters["exhaustive.configurations"]["value"] >= 2 ** 5
    assert counters["exhaustive.edges"]["value"] >= 6 * 2 ** 4
    assert outcome.report == _tree_report(task)


def test_untraced_outcome_is_unchanged():
    outcome = _task("build-degenerate", 5).execute()
    assert outcome.telemetry is None and outcome.kernel_stats is None
