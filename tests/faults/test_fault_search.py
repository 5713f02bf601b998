"""Adversary search over the joint fault × schedule space.

Every strategy is pinned against the exhaustive enumeration as ground
truth on small instances: the deadlock DFS verdict is exact, the
unbudgeted branch-and-bound maximum is exact, the transposition table
changes nothing, and every witness replays to its recorded accounting.
The fault-free identity block establishes the PR's central regression
guarantee: ``faults=None`` plans and reports are field-identical to
plans that never heard of faults.
"""

from dataclasses import replace

import pytest

from repro.adversaries import (
    BeamSearchAdversary,
    BranchAndBoundAdversary,
    DeadlockAdversary,
    GreedyBitsAdversary,
)
from repro.analysis.checkers import default_checker
from repro.campaigns.store import report_to_jsonable, witness_to_jsonable
from repro.core import ASYNC, SIMASYNC
from repro.core.execution import replay_schedule
from repro.core.simulator import all_executions
from repro.graphs.families import family
from repro.protocols.bfs import EobBfsProtocol
from repro.protocols.build import DegenerateBuildProtocol
from repro.runtime import ExecutionPlan

BUDGETS = [None, "crash:1", "loss:1", "crash:1,loss:1"]


def eob_instance(n, seed=0):
    return family("even-odd-bipartite").sample_in_class(n, seed)


def exhaustive_truth(graph, proto, model, faults):
    worst = (False, -1, -1)
    deadlock = False
    for r in all_executions(graph, proto, model, faults=faults):
        deadlock |= r.corrupted
        key = (r.corrupted, r.max_message_bits, r.total_bits)
        worst = max(worst, key)
    return deadlock, worst


class TestDeadlockDfsExact:
    @pytest.mark.parametrize("faults", BUDGETS)
    @pytest.mark.parametrize("n", [4, 5])
    def test_verdict_iff_exhaustive_deadlock(self, n, faults):
        g = eob_instance(n)
        proto = EobBfsProtocol()
        truth, _ = exhaustive_truth(g, proto, ASYNC, faults)
        witness = DeadlockAdversary(max_steps=None).search(
            g, proto, ASYNC, faults=faults
        )
        assert witness.deadlock == truth
        if truth:
            replayed = replay_schedule(g, proto, ASYNC, witness.schedule,
                                       faults=faults)
            assert replayed.corrupted

    def test_crash_budget_creates_a_deadlock(self):
        # Non-vacuity: the fault dimension genuinely changes the verdict
        # (the census claim violation rests on this instance).
        g = eob_instance(4)
        proto = EobBfsProtocol()
        assert not exhaustive_truth(g, proto, ASYNC, None)[0]
        assert exhaustive_truth(g, proto, ASYNC, "crash:1")[0]

    @pytest.mark.parametrize("faults", ["crash:2", "loss:1,dup:1"])
    def test_simultaneous_models_never_deadlock(self, faults):
        # Crashed nodes are terminated, not starved — the SIM shortcut
        # stays valid under every fault budget.
        g = family("degenerate2").sample_in_class(4, 0)
        proto = DegenerateBuildProtocol(2)
        truth, _ = exhaustive_truth(g, proto, SIMASYNC, faults)
        assert not truth
        witness = DeadlockAdversary(max_steps=None).search(
            g, proto, SIMASYNC, faults=faults
        )
        assert not witness.deadlock


class TestBranchAndBoundExact:
    @pytest.mark.parametrize("faults", BUDGETS)
    def test_unbudgeted_search_matches_exhaustive_maximum(self, faults):
        g = eob_instance(4)
        proto = EobBfsProtocol()
        _, worst = exhaustive_truth(g, proto, ASYNC, faults)
        witness = BranchAndBoundAdversary(max_steps=None).search(
            g, proto, ASYNC, faults=faults
        )
        assert (witness.deadlock, witness.bits, witness.total_bits) == worst

    @pytest.mark.parametrize("faults", ["dup:1", "crash:1,dup:1"])
    def test_simasync_collapse_is_gated_off_under_faults(self, faults):
        # With faults enabled the SIMASYNC one-shot collapse would miss
        # duplications; the exact sweep must still find the doubled total.
        g = family("degenerate2").sample_in_class(4, 0)
        proto = DegenerateBuildProtocol(2)
        _, worst = exhaustive_truth(g, proto, SIMASYNC, faults)
        witness = BranchAndBoundAdversary(max_steps=None).search(
            g, proto, SIMASYNC, faults=faults
        )
        assert (witness.deadlock, witness.bits, witness.total_bits) == worst


class TestWitnessReplay:
    @pytest.mark.parametrize("strategy", [
        GreedyBitsAdversary(restarts=2, seed=0),
        BeamSearchAdversary(width=4, restarts=1, seed=0),
        BranchAndBoundAdversary(max_steps=2000, restarts=1, seed=0),
    ])
    @pytest.mark.parametrize("faults", ["crash:1", "loss:1", "dup:1"])
    def test_witness_replays_to_recorded_accounting(self, strategy, faults):
        g = eob_instance(5)
        proto = EobBfsProtocol()
        witness = strategy.search(g, proto, ASYNC, faults=faults)
        replayed = replay_schedule(g, proto, ASYNC, witness.schedule,
                                   faults=faults)
        assert replayed.max_message_bits == witness.bits
        assert replayed.total_bits == witness.total_bits
        assert replayed.corrupted == witness.deadlock


def stress_report(faults, table=False, threshold=2, **kwargs):
    g = eob_instance(5)
    plan = ExecutionPlan.build(
        EobBfsProtocol(), ASYNC, [g],
        mode="stress",
        checker=default_checker("eob-bfs"),
        exhaustive_threshold=threshold,
        allow_deadlock=True,
        keep_runs=False,
        faults=faults,
        **kwargs,
    )
    if table:
        # Empty warm frontiers attach one transposition table per
        # search cell.
        plan = replace(plan, tasks=tuple(
            replace(task, frontiers=()) if task.mode == "search" else task
            for task in plan.tasks
        ))
    return plan, plan.verification_report()


def report_fields(report):
    return (
        report_to_jsonable(report),
        [witness_to_jsonable(w) for w in report.witnesses],
    )


class TestFaultFreeIdentity:
    def test_none_and_none_string_produce_identical_tasks(self):
        plan_a, report_a = stress_report(None)
        plan_b, report_b = stress_report("none")
        for ta, tb in zip(plan_a.tasks, plan_b.tasks):
            assert ta.faults is None and tb.faults is None
            assert ta.mode == tb.mode
        assert report_fields(report_a) == report_fields(report_b)

    def test_table_on_off_identity_under_faults(self):
        # threshold=2 forces a search cell; a transposition table must
        # not change a single report field.
        _, off = stress_report("crash:1", table=False)
        _, on = stress_report("crash:1", table=True)
        assert report_fields(off) == report_fields(on)

    def test_witness_records_carry_the_fault_budget(self):
        _, report = stress_report("crash:1")
        assert report.witnesses
        for witness in report.witnesses:
            assert witness.faults == "crash:1"
            replayed = replay_schedule(
                witness.graph, EobBfsProtocol(), ASYNC, witness.schedule,
                faults=witness.faults,
            )
            assert replayed.max_message_bits == witness.bits
            assert replayed.corrupted == witness.deadlock

    def test_minimal_schedules_still_force_under_faults(self):
        from repro.adversaries import schedule_forces

        _, report = stress_report("crash:1")
        for witness in report.witnesses:
            if witness.minimal_schedule is None:
                continue
            assert schedule_forces(
                witness.graph, EobBfsProtocol(), ASYNC,
                witness.minimal_schedule,
                bits=witness.bits, deadlock=witness.deadlock,
                faults=witness.faults,
            )

    def test_scheduler_modes_reject_fault_budgets(self):
        g = eob_instance(5)
        with pytest.raises(ValueError, match="fault budgets"):
            ExecutionPlan.build(
                EobBfsProtocol(), ASYNC, [g],
                mode="verify",
                checker=default_checker("eob-bfs"),
                keep_runs=False,
                faults="crash:1",
            )
