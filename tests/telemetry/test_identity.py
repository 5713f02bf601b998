"""The observation-only invariant, pinned.

Telemetry must never change what the engine computes: for every
jobs x faults combination, the merged report with tracing ON is
field-identical to the report with tracing OFF, and the deterministic
kernel counters a traced run reports equal the ``SearchStats`` numbers
the strategies themselves accumulated.
"""

import json

import pytest

from repro.adversaries import SearchContext, default_search_portfolio
from repro.analysis.checkers import default_checker
from repro.core.models import MODELS_BY_NAME
from repro.graphs import generators as gen
from repro.protocols.build import DegenerateBuildProtocol
from repro.runtime import ProcessPoolBackend, SerialBackend
from repro.runtime.plan import ExecutionPlan
from repro.telemetry import KernelStats, TaskCollection, set_tracing


def _stress_plan(sizes=(4, 6), faults=None):
    proto = DegenerateBuildProtocol(2)
    graphs = [gen.random_k_degenerate(n, 2, seed=0) for n in sizes]
    return ExecutionPlan.build(
        proto, [MODELS_BY_NAME["SIMASYNC"]], graphs, mode="stress",
        checker=default_checker(proto), exhaustive_threshold=5,
        bit_budget=lambda n: 4096, faults=faults)


def _report_key(report):
    return json.dumps(vars(report), sort_keys=True, default=repr)


def _run(plan, backend):
    return [task.execute() for task in plan.tasks] if backend is None \
        else list(backend.run(list(plan.tasks)))


class TestTraceOnEqualsTraceOff:
    @pytest.mark.parametrize("jobs", [None, 2])
    @pytest.mark.parametrize("faults", [None, "crash:1"])
    def test_reports_field_identical(self, jobs, faults):
        backend = (None if jobs is None
                   else ProcessPoolBackend(jobs=jobs, chunk_size=1))
        plan = _stress_plan(faults=faults)

        set_tracing(False)
        off = _run(_stress_plan(faults=faults), backend)
        set_tracing(True)
        try:
            on = _run(plan, backend)
        finally:
            set_tracing(False)

        assert [_report_key(o.report) for o in off] \
            == [_report_key(o.report) for o in on]
        # tracing decorates the outcome but never the result
        assert all(o.telemetry is None for o in off)
        assert all(o.telemetry is not None for o in on)

    def test_kernel_stats_equal_on_and_off(self):
        plan_off = _stress_plan(sizes=(6,))
        plan_on = _stress_plan(sizes=(6,))
        set_tracing(False)
        (off,) = _run(plan_off, None)
        set_tracing(True)
        try:
            (on,) = _run(plan_on, None)
        finally:
            set_tracing(False)
        assert off.kernel_stats is not None
        assert off.kernel_stats == on.kernel_stats

    def test_kernel_stats_equal_serial_and_process(self):
        plan = _stress_plan(sizes=(6,))
        serial = _run(_stress_plan(sizes=(6,)), SerialBackend())
        pooled = _run(plan, ProcessPoolBackend(jobs=2, chunk_size=1))
        assert [o.kernel_stats for o in serial] \
            == [o.kernel_stats for o in pooled]


class TestKernelEqualsSearchStats:
    def test_capture_matches_context_stats(self):
        graph = gen.random_k_degenerate(6, 2, seed=0)
        proto = DegenerateBuildProtocol(2)
        model = MODELS_BY_NAME["SIMASYNC"]
        context = SearchContext()
        for strategy in default_search_portfolio():
            strategy.search(graph, proto, model, 4096, context=context)
        stats = context.stats
        kernel = KernelStats.capture([stats], [])
        assert kernel is not None
        assert kernel.steps == stats.steps
        assert kernel.searches == stats.searches
        assert kernel.restarts == stats.restarts
        # Retired counter: read-only zero for the benchmark ledger.
        assert kernel.bound_prunes == 0

    def test_task_kernel_matches_direct_search(self):
        # the kernel a task ships home equals the SearchStats numbers a
        # hand-driven identical search accumulates
        plan = _stress_plan(sizes=(6,))
        (outcome,) = _run(plan, None)
        graph = gen.random_k_degenerate(6, 2, seed=0)
        proto = DegenerateBuildProtocol(2)
        context = SearchContext()
        for strategy in default_search_portfolio():
            strategy.search(graph, proto, MODELS_BY_NAME["SIMASYNC"],
                            4096, context=context)
        assert outcome.kernel_stats.steps == context.stats.steps
        assert outcome.kernel_stats.searches == context.stats.searches


class TestFinalizeIdentity:
    def test_untraced_exhaustive_outcome_is_the_same_object(self):
        # nothing observed -> finalize returns the identical outcome, so
        # sharded-vs-serial equality comparisons stay byte-for-byte
        plan = _stress_plan(sizes=(4,))
        (task,) = plan.tasks
        collect = TaskCollection(task)
        with collect:
            outcome = task._run_cell(collect)
        assert collect.finalize(outcome) is outcome
