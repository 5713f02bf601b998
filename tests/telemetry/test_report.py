"""The human trace report: sections, timings, flags."""

import pytest

from repro.analysis.checkers import default_checker
from repro.core.models import MODELS_BY_NAME
from repro.graphs import generators as gen
from repro.protocols.build import DegenerateBuildProtocol
from repro.runtime.plan import ExecutionPlan
from repro.runtime.results import ReportMergeSink
from repro.telemetry import RunTelemetry, load_trace, render_report


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "run.jsonl"
    proto = DegenerateBuildProtocol(2)
    graphs = [gen.random_k_degenerate(n, 2, seed=0) for n in (4, 6)]
    plan = ExecutionPlan.build(
        proto, [MODELS_BY_NAME["SIMASYNC"]], graphs, mode="stress",
        checker=default_checker(proto), exhaustive_threshold=5,
        bit_budget=lambda n: 4096)
    with RunTelemetry(path, command="stress") as session:
        with session.activate():
            session.add_plan(plan)
            sink = session.sink(
                ReportMergeSink(plan.protocol_names[0],
                                plan.model_names[0]))
            for task in plan.tasks:
                sink.add(task.execute())
    return load_trace(path)


class TestRender:
    def test_header_and_sections(self, trace):
        text = render_report(trace)
        assert text.startswith(f"trace {trace.manifest['run_id']}: stress")
        assert "machine:" in text
        assert "per-cell timings:" in text
        assert "hotspots" in text

    def test_per_cell_rows_carry_identity_and_kernel(self, trace):
        text = render_report(trace)
        lines = text.splitlines()
        rows = [l for l in lines if "build-degenerate(k=2)/n=" in l]
        assert len(rows) == 2
        search_row = next(l for l in rows if "/n=6" in l)
        assert "search" in search_row
        # the deterministic kernel columns render real numbers
        assert any(col.isdigit() and int(col) > 0
                   for col in search_row.split())

    def test_hotspots_fold_span_names(self, trace):
        text = render_report(trace, top=3)
        hotspot_section = text.split("hotspots")[1]
        assert "task" in hotspot_section
        # top=3 caps the table (skip the header fragment and column rows)
        rows = [l for l in hotspot_section.splitlines()[1:]
                if l.strip() and not l.strip().startswith(("span", "-"))]
        assert 0 < len(rows) <= 3

    def test_kernel_summary_line(self, trace):
        text = render_report(trace)
        assert "kernel:" in text
        assert "steps" in text


class TestExhaustiveFolds:
    def test_section_names_walks_and_dag_counters(self, tmp_path):
        """The n=5 stress cell folds over the quotient DAG, its
        kept-runs twin walks the tree, and the section says so."""
        from dataclasses import replace

        path = tmp_path / "folds.jsonl"
        proto = DegenerateBuildProtocol(2)
        plan = ExecutionPlan.build(
            proto, [MODELS_BY_NAME["SIMASYNC"]],
            [gen.random_k_degenerate(5, 2, seed=0)], mode="stress",
            checker=default_checker(proto), exhaustive_threshold=5)
        [task] = plan.tasks
        with RunTelemetry(path, command="stress") as session:
            with session.activate():
                session.add_plan(plan)
                sink = session.sink(ReportMergeSink(
                    plan.protocol_names[0], plan.model_names[0]))
                sink.add(task.execute())
                sink.add(replace(task, keep_runs=True).execute())
        text = render_report(load_trace(path))
        section = text.split("exhaustive folds:")[1]
        assert "walks: 1 dag, 1 tree (keep-runs)" in section
        assert "quotient DAG: 32 configurations, 80 edges" in section
