"""Tests for ExecutionPlan construction and task semantics."""

import pytest

from repro.analysis.checkers import AcceptAny, BuildEqualsInput
from repro.analysis.verify import verify_protocol
from repro.core import SIMASYNC, SIMSYNC, MinIdScheduler, RandomScheduler, run
from repro.graphs import generators as gen
from repro.protocols.build import DegenerateBuildProtocol, ForestBuildProtocol
from repro.runtime import ExecutionPlan, ListSink, SerialBackend


class TestBuild:
    def test_enumeration_is_protocol_major_and_indexed(self):
        protos = [DegenerateBuildProtocol(2), ForestBuildProtocol()]
        graphs = [gen.path_graph(3), gen.path_graph(4)]
        plan = ExecutionPlan.build(
            protos, [SIMASYNC, SIMSYNC], graphs, checker=AcceptAny()
        )
        assert len(plan) == 8
        assert [t.index for t in plan] == list(range(8))
        cells = [(t.protocol.name, t.model_name, t.graph.n) for t in plan]
        assert cells == [
            (p.name, m, g.n)
            for p in protos for m in ("SIMASYNC", "SIMSYNC") for g in graphs
        ]
        # Identical inputs build an identical plan.
        again = ExecutionPlan.build(
            protos, [SIMASYNC, SIMSYNC], graphs, checker=AcceptAny()
        )
        assert [(t.index, t.mode) for t in again] == [(t.index, t.mode) for t in plan]

    def test_verify_mode_applies_threshold(self):
        graphs = [gen.path_graph(4), gen.path_graph(9)]
        plan = ExecutionPlan.build(
            DegenerateBuildProtocol(1), SIMASYNC, graphs,
            mode="verify", checker=BuildEqualsInput(), exhaustive_threshold=5,
        )
        assert [t.mode for t in plan] == ["exhaustive", "schedules"]
        assert all(not t.keep_runs for t in plan)
        assert plan.tasks[0].schedulers == ()
        assert plan.tasks[1].schedulers  # portfolio attached

    def test_exhaustive_mode_ignores_threshold(self):
        plan = ExecutionPlan.build(
            DegenerateBuildProtocol(1), SIMASYNC,
            [gen.path_graph(9)], mode="exhaustive", checker=AcceptAny(),
        )
        assert plan.tasks[0].mode == "exhaustive"

    def test_bit_budget_resolved_per_graph(self):
        plan = ExecutionPlan.build(
            DegenerateBuildProtocol(1), SIMASYNC,
            [gen.path_graph(4), gen.path_graph(8)],
            checker=AcceptAny(), bit_budget=lambda n: 10 * n,
        )
        assert [t.bit_budget for t in plan] == [40, 80]

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ExecutionPlan.build(
                DegenerateBuildProtocol(1), SIMASYNC, [], mode="bogus"
            )

    def test_rejects_checkerless_plan_without_runs(self):
        with pytest.raises(ValueError):
            ExecutionPlan.build(
                DegenerateBuildProtocol(1), SIMASYNC, [gen.path_graph(3)],
                keep_runs=False,
            )


class TestExecution:
    def test_single_mode_matches_direct_runs(self):
        g = gen.random_k_degenerate(7, 2, seed=3)
        scheds = (MinIdScheduler(), RandomScheduler(1))
        plan = ExecutionPlan.build(
            DegenerateBuildProtocol(2), SIMASYNC, [g], schedulers=scheds
        )
        outcomes = plan.run(backend=SerialBackend(), sink=ListSink())
        assert len(outcomes) == 1 and outcomes[0].report is None
        direct = [
            run(g, DegenerateBuildProtocol(2), SIMASYNC, s) for s in scheds
        ]
        got = outcomes[0].runs
        assert [r.write_order for r in got] == [r.write_order for r in direct]
        assert [r.output for r in got] == [r.output for r in direct]

    def test_verify_plan_matches_verify_protocol(self):
        graphs = [gen.random_k_degenerate(n, 2, seed=n) for n in (4, 8)]
        plan = ExecutionPlan.build(
            DegenerateBuildProtocol(2), SIMASYNC, graphs,
            mode="verify", checker=BuildEqualsInput(),
        )
        from_plan = plan.verification_report()
        legacy = verify_protocol(
            DegenerateBuildProtocol(2), SIMASYNC, graphs, BuildEqualsInput()
        )
        assert from_plan == legacy

    def test_empty_instances_yield_named_empty_report(self):
        plan = ExecutionPlan.build(
            DegenerateBuildProtocol(2), SIMASYNC, [],
            mode="verify", checker=BuildEqualsInput(),
        )
        report = plan.verification_report()
        assert report.ok and report.instances == 0
        assert report.protocol_name == "build-degenerate(k=2)"
        assert report.model_name == "SIMASYNC"

    def test_checkerless_outcome_has_no_report(self):
        plan = ExecutionPlan.build(
            DegenerateBuildProtocol(1), SIMASYNC, [gen.path_graph(3)]
        )
        with pytest.raises(ValueError):
            plan.verification_report()


class TestStressMode:
    def test_stress_lowering_and_witness_capture_flags(self):
        graphs = [gen.path_graph(4), gen.path_graph(9)]
        plan = ExecutionPlan.build(
            DegenerateBuildProtocol(1), SIMASYNC, graphs,
            mode="stress", checker=BuildEqualsInput(), exhaustive_threshold=5,
        )
        assert [t.mode for t in plan] == ["exhaustive", "search"]
        assert all(t.capture_witnesses for t in plan)
        assert all(not t.keep_runs for t in plan)
        assert plan.tasks[0].adversaries == ()
        assert plan.tasks[1].adversaries  # search portfolio attached

    def test_stress_report_carries_replayable_witnesses(self):
        from repro.core import MODELS_BY_NAME, replay_schedule

        graphs = [gen.path_graph(4), gen.random_k_degenerate(8, 2, seed=8)]
        plan = ExecutionPlan.build(
            DegenerateBuildProtocol(2), SIMASYNC, graphs,
            mode="stress", checker=BuildEqualsInput(), exhaustive_threshold=5,
        )
        report = plan.verification_report()
        assert report.ok
        # One exhaustive witness for the small cell, one per strategy above.
        strategies = [w.strategy for w in report.witnesses]
        assert strategies[0] == "exhaustive"
        assert len(strategies) == 1 + len(plan.tasks[1].adversaries)
        for witness in report.witnesses:
            replayed = replay_schedule(
                witness.graph, DegenerateBuildProtocol(2),
                MODELS_BY_NAME[witness.model_name], witness.schedule,
            )
            assert replayed.max_message_bits == witness.bits
            assert replayed.corrupted == witness.deadlock

    def test_stress_exhaustive_witness_matches_ground_truth(self):
        from repro.core import all_executions

        g = gen.random_k_degenerate(5, 2, seed=5)
        plan = ExecutionPlan.build(
            DegenerateBuildProtocol(2), SIMASYNC, [g],
            mode="stress", checker=BuildEqualsInput(),
        )
        report = plan.verification_report()
        truth = max(
            r.max_message_bits
            for r in all_executions(g, DegenerateBuildProtocol(2), SIMASYNC)
        )
        assert report.witnesses[0].bits == truth == report.max_message_bits

    def test_stress_search_matches_exhaustive_small_n(self):
        """Above-threshold search agrees with the exhaustive maximum when
        the instance is still small enough to check both ways."""
        from repro.core import all_executions

        g = gen.random_k_degenerate(6, 2, seed=2)
        plan = ExecutionPlan.build(
            DegenerateBuildProtocol(2), SIMASYNC, [g],
            mode="stress", checker=BuildEqualsInput(), exhaustive_threshold=5,
        )
        report = plan.verification_report()
        assert plan.tasks[0].mode == "search"
        truth = max(
            r.max_message_bits
            for r in all_executions(g, DegenerateBuildProtocol(2), SIMASYNC)
        )
        assert max(w.bits for w in report.witnesses) == truth

    def test_stress_parallel_equals_serial(self):
        from repro.runtime import ProcessPoolBackend

        graphs = [gen.random_k_degenerate(n, 2, seed=n) for n in (4, 8, 10)]
        plan = ExecutionPlan.build(
            DegenerateBuildProtocol(2), SIMASYNC, graphs,
            mode="stress", checker=BuildEqualsInput(),
        )
        serial = plan.verification_report(backend=SerialBackend())
        parallel = plan.verification_report(
            backend=ProcessPoolBackend(jobs=2, chunk_size=1)
        )
        assert serial == parallel
        assert serial.witnesses  # non-empty, and identical across backends

    def test_verify_protocol_stress_mode(self):
        report = verify_protocol(
            DegenerateBuildProtocol(2), SIMASYNC,
            [gen.random_k_degenerate(8, 2, seed=1)], BuildEqualsInput(),
            mode="stress",
        )
        assert report.ok and report.witnesses
        with pytest.raises(ValueError):
            verify_protocol(
                DegenerateBuildProtocol(2), SIMASYNC, [], BuildEqualsInput(),
                mode="bogus",
            )

    def test_adversaries_rejected_outside_stress_mode(self):
        from repro.adversaries import GreedyBitsAdversary

        with pytest.raises(ValueError):
            ExecutionPlan.build(
                DegenerateBuildProtocol(2), SIMASYNC, [gen.path_graph(4)],
                mode="verify", checker=BuildEqualsInput(),
                adversaries=[GreedyBitsAdversary()],
            )
