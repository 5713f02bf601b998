"""Runtime-layer sharding: one heavy exhaustive cell, many workers.

:mod:`repro.runtime.sharding` lowers a task list into whole-task items
plus schedule-prefix lots, the process backend fans them through its
ordinary ``map`` seam, and ``reassemble`` folds the per-prefix partial
aggregates back in DFS unit order.  The contract: the merged
:class:`TaskOutcome` is field-identical to ``task.execute()``, any
failure falls back to the serial authority, and the whole mechanism is
invisible to campaign fingerprints (a sharded cell is the same work).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.checkers import default_checker
from repro.core.models import MODELS_BY_NAME
from repro.graphs import generators as gen
from repro.protocols.bfs import EobBfsProtocol
from repro.protocols.build import DegenerateBuildProtocol
from repro.runtime import sharding
from repro.runtime.backends import (
    ProcessPoolBackend,
    SerialBackend,
    _default_jobs,
    _execute_item,
)
from repro.runtime.plan import ExecutionPlan


def _stress_plan(sizes=(4, 6), faults=None, protocol=None, models=None):
    proto = protocol if protocol is not None else DegenerateBuildProtocol(2)
    models = models if models is not None else [MODELS_BY_NAME["SIMASYNC"]]
    graphs = [gen.random_k_degenerate(n, 2, seed=0) for n in sizes]
    return ExecutionPlan.build(
        proto, models, graphs, mode="stress",
        checker=default_checker(proto), exhaustive_threshold=6,
        bit_budget=lambda n: 4096, faults=faults, keep_runs=True)


def _outcome_key(outcome):
    report = outcome.report
    body = (None if report is None
            else json.dumps(vars(report), sort_keys=True, default=repr))
    return (outcome.index, body, outcome.runs)


class TestLower:
    def test_only_heavy_exhaustive_cells_shard(self):
        plan = _stress_plan(sizes=(4, 6, 8))
        items, layout = sharding.lower(list(plan.tasks), 2)
        kinds = [entry[0] for entry in layout]
        # n=4 exhaustive (below SHARD_MIN_N) and n=8 search stay whole;
        # the n=6 exhaustive cell fans out into several lots.
        assert kinds == ["task", "shard", "task"]
        shard_items = [item for item in items if item[0] == "shard"]
        assert len(shard_items) == layout[1][2] >= 2
        lots = [prefixes for _, (_, prefixes) in shard_items]
        covered = sorted(p for lot in lots for p in lot)
        expected = sorted(p for kind, p in layout[1][1] if kind == "prefix")
        assert covered == expected

    def test_single_schedule_cell_stays_whole(self):
        # ASYNC on a path never branches: one schedule, nothing to split.
        plan = ExecutionPlan.build(
            EobBfsProtocol(), [MODELS_BY_NAME["ASYNC"]], [gen.path_graph(6)],
            mode="stress", checker=default_checker(EobBfsProtocol()),
            exhaustive_threshold=6, keep_runs=True)
        items, layout = sharding.lower(list(plan.tasks), 2)
        assert [entry[0] for entry in layout] == ["task"]


class TestMergeIdentity:
    @pytest.mark.parametrize("faults", [None, "crash:1"])
    def test_in_process_merge_matches_execute(self, faults):
        plan = _stress_plan(sizes=(6,), faults=faults)
        tasks = list(plan.tasks)
        items, layout = sharding.lower(tasks, 2)
        assert layout[0][0] == "shard"
        outputs = [_execute_item(item) for item in items]
        assert all(status == "ok" for status, _ in outputs)
        [outcome] = list(sharding.reassemble(tasks, layout, outputs))
        assert _outcome_key(outcome) == _outcome_key(tasks[0].execute())

    def test_backend_run_matches_serial(self):
        plan = _stress_plan(sizes=(4, 6), faults="crash:1")
        serial = [_outcome_key(o) for o in SerialBackend().run(plan.tasks)]
        sharded = [
            _outcome_key(o)
            for o in ProcessPoolBackend(jobs=2, chunk_size=1).run(plan.tasks)
        ]
        assert sharded == serial

    def test_dropped_runs_and_no_checker(self):
        """keep_runs=False / checker=None cells still merge identically."""
        from dataclasses import replace

        plan = _stress_plan(sizes=(6,))
        for patch in ({"keep_runs": False}, {"checker": None}):
            task = replace(plan.tasks[0], **patch)
            items, layout = sharding.lower([task], 2)
            outputs = [_execute_item(item) for item in items]
            [outcome] = list(sharding.reassemble([task], layout, outputs))
            assert _outcome_key(outcome) == _outcome_key(task.execute())

    def test_worker_error_falls_back_to_serial(self):
        plan = _stress_plan(sizes=(6,))
        tasks = list(plan.tasks)
        items, layout = sharding.lower(tasks, 2)
        outputs = [("error", "RuntimeError: boom") for _ in items]
        [outcome] = list(sharding.reassemble(tasks, layout, outputs))
        assert _outcome_key(outcome) == _outcome_key(tasks[0].execute())


class TestDefaultJobs:
    def test_prefers_process_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "process_cpu_count", lambda: 3,
                            raising=False)
        assert _default_jobs() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        """Python < 3.13 has no ``os.process_cpu_count``; the default
        must degrade to ``os.cpu_count`` and then to 1."""
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert _default_jobs() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _default_jobs() == 1


class TestFingerprintInvisible:
    def test_store_rerun_executes_nothing_across_jobs(self, tmp_path):
        """Sharding adds no task attribute, so a store populated by a
        sharded run serves a serial re-run entirely from cache — and
        vice versa.  Zero executions on the second pass."""
        from repro.campaigns import ResultStore
        from repro.campaigns.runner import _run_cells_with_store

        plan = _stress_plan(sizes=(6,), faults="crash:1")
        with ResultStore(tmp_path / "s.db", salt="t") as store:
            [(reports, hits)] = _run_cells_with_store(
                [plan.tasks], store,
                backend=ProcessPoolBackend(jobs=2, chunk_size=1))
            assert hits == 0 and store.writes == len(plan.tasks)
            writes_before = store.writes
            [(again, hits)] = _run_cells_with_store(
                [plan.tasks], store, backend=SerialBackend())
            assert hits == len(plan.tasks)
            assert store.writes == writes_before
            assert [vars(r) for r in again] == [vars(r) for r in reports]


class TestShardTelemetry:
    def test_lower_emits_lot_event_only_when_traced(self):
        from repro.telemetry import Tracer, activated

        plan = _stress_plan(sizes=(6,))
        tasks = list(plan.tasks)
        sharding.lower(tasks, 2)  # untraced: must not touch any tracer

        tracer = Tracer()
        with activated(tracer):
            items, layout = sharding.lower(tasks, 2)
        assert layout[0][0] == "shard"
        (event,) = [e for e in tracer.events if e[0] == "shard.lots"]
        attrs = event[2]
        assert attrs["lots"] == layout[0][2]
        assert attrs["prefixes"] >= attrs["lots"]
        assert attrs["imbalance"] >= 1.0

    def test_fallback_counts_and_events(self):
        from repro.telemetry import Tracer, activated

        plan = _stress_plan(sizes=(6,))
        tasks = list(plan.tasks)
        items, layout = sharding.lower(tasks, 2)
        lot_count = layout[0][2]
        # every lot "failed": reassemble must fall back to serial
        outputs = [("error", "boom")] * lot_count
        tracer = Tracer()
        with activated(tracer):
            (outcome,) = list(sharding.reassemble(tasks, layout, outputs))
        assert outcome.report is not None
        assert tracer.metrics.counter("shard.fallbacks").value == 1
        (event,) = [e for e in tracer.events if e[0] == "shard.fallback"]
        assert event[2]["reason"] == "lot-error"


class TestPartitionWeighted:
    def test_more_lots_than_items(self):
        """Requesting more lots than items degrades to one singleton lot
        per item (empty groups are dropped, never returned)."""
        parts = sharding.partition_weighted([3.0, 1.0, 2.0], 8)
        assert len(parts) == 3
        assert sorted(i for part in parts for i in part) == [0, 1, 2]
        assert all(len(part) == 1 for part in parts)

    def test_single_item_and_empty(self):
        assert sharding.partition_weighted([7.0], 4) == [[0]]
        assert sharding.partition_weighted([], 4) == []

    def test_equal_weights_deterministic(self):
        """All-equal weights: the stable descending sort keeps index
        order, so the greedy deals indices round-robin — the same
        grouping every call, so sharded lots are reproducible."""
        first = sharding.partition_weighted([1.0] * 6, 2)
        assert first == sharding.partition_weighted([1.0] * 6, 2)
        assert first == [[0, 2, 4], [1, 3, 5]]

    def test_lpt_balance_covers_items(self):
        """Every item lands in exactly one ascending lot, and no lot
        exceeds the ideal share by more than the largest single weight."""
        weights = [float(w) for w in (24, 6, 6, 2, 2, 2, 1, 1, 120, 24)]
        for lots in (1, 2, 3, len(weights), len(weights) + 5):
            parts = sharding.partition_weighted(weights, lots)
            assert 1 <= len(parts) <= min(lots, len(weights))
            assert all(part == sorted(part) for part in parts)
            covered = sorted(i for part in parts for i in part)
            assert covered == list(range(len(weights)))
            loads = [sum(weights[i] for i in part) for part in parts]
            assert max(loads) <= sum(weights) / len(parts) + max(weights)


class TestExpansionUnits:
    def test_units_preserve_dfs_order(self):
        """Parent expansion is a prefix-exact reordering of the serial
        DFS: replaying each unit's subtree in unit order reproduces the
        full serial enumeration."""
        from repro.core.models import SIMASYNC
        from repro.core.simulator import all_executions

        g = gen.random_k_degenerate(5, 2, seed=0)
        proto = DegenerateBuildProtocol(2)
        units = sharding.expand_enumeration_units(g, proto, SIMASYNC, None,
                                                  None, min_prefixes=4)
        prefixes = [p for kind, p in units if kind == "prefix"]
        assert len(prefixes) >= 4
        assert len({len(p) for p in prefixes}) == 1  # uniform depth
        serial = list(all_executions(g, proto, SIMASYNC))
        rebuilt = []
        for kind, payload in units:
            if kind == "result":
                rebuilt.append(payload)
            else:
                rebuilt.extend(r for r in serial
                               if r.schedule[:len(payload)] == payload)
        assert rebuilt == serial

    @pytest.mark.parametrize("graph,proto,model", [
        pytest.param(gen.random_k_degenerate(5, 2, seed=0),
                     DegenerateBuildProtocol(2), MODELS_BY_NAME["SIMASYNC"],
                     id="build-simasync"),
        pytest.param(gen.random_k_degenerate(5, 2, seed=1),
                     DegenerateBuildProtocol(2), MODELS_BY_NAME["SIMSYNC"],
                     id="build-simsync"),
        pytest.param(gen.random_connected_graph(5, 0.7, seed=2),
                     EobBfsProtocol(), MODELS_BY_NAME["ASYNC"],
                     id="eob-async"),
        pytest.param(gen.random_connected_graph(5, 0.5, seed=3),
                     EobBfsProtocol(), MODELS_BY_NAME["SYNC"], id="eob-sync"),
    ])
    @pytest.mark.parametrize("faults", [None, "crash:1"])
    def test_units_rebuild_serial_enumeration(self, graph, proto, model,
                                              faults):
        """Across models and faults: the unit list, with each prefix
        replaced by the serial results below it, is the serial
        enumeration itself, and every serial result is covered once."""
        from repro.core.simulator import all_executions

        units = sharding.expand_enumeration_units(graph, proto, model, None,
                                                  faults, min_prefixes=4)
        prefixes = [p for kind, p in units if kind == "prefix"]
        assert len({len(p) for p in prefixes}) <= 1  # uniform depth
        serial = list(all_executions(graph, proto, model, faults=faults))
        rebuilt = []
        for kind, payload in units:
            if kind == "result":
                rebuilt.append(payload)
            else:
                rebuilt.extend(r for r in serial
                               if r.schedule[:len(payload)] == payload)
        assert rebuilt == serial


LOT_FIXTURES = [
    pytest.param(gen.random_k_degenerate(6, 2, seed=0),
                 DegenerateBuildProtocol(2), MODELS_BY_NAME["SIMASYNC"],
                 id="build-simasync"),
    pytest.param(gen.random_k_degenerate(6, 2, seed=1),
                 DegenerateBuildProtocol(2), MODELS_BY_NAME["SIMSYNC"],
                 id="build-simsync"),
    pytest.param(gen.random_connected_graph(6, 0.7, seed=2),
                 EobBfsProtocol(), MODELS_BY_NAME["ASYNC"], id="eob-async"),
    pytest.param(gen.random_connected_graph(6, 0.5, seed=3),
                 EobBfsProtocol(), MODELS_BY_NAME["SYNC"], id="eob-sync"),
]


def _exhaustive_task(graph, proto, model, faults, bit_budget=None):
    plan = ExecutionPlan.build(
        proto, [model], [graph], mode="exhaustive",
        checker=default_checker(proto), bit_budget=bit_budget,
        faults=faults, keep_runs=True)
    (task,) = plan.tasks
    return task


def _run_lots_in_process(task, jobs):
    """Lower, execute every item here, and reassemble — the sharded
    path without a pool, so lot errors surface as item statuses."""
    items, layout = sharding.lower([task], jobs)
    outputs = [_execute_item(item) for item in items]
    (outcome,) = list(sharding.reassemble([task], layout, outputs))
    return layout, outputs, outcome


class TestLotMatrix:
    @pytest.mark.parametrize("graph,proto,model", LOT_FIXTURES)
    @pytest.mark.parametrize("faults", [None, "crash:1", "loss:1"])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_lot_merge_matches_execute(self, graph, proto, model, faults,
                                       jobs):
        """Every fixture × fault budget × worker count: the cell really
        splits into lots, no lot errors, and the merged outcome —
        report, kept runs in DFS order, witnesses — is field-identical
        to the serial ``execute``."""
        task = _exhaustive_task(graph, proto, model, faults)
        layout, outputs, outcome = _run_lots_in_process(task, jobs)
        assert layout[0][0] == "shard"
        assert layout[0][2] >= 2
        assert all(status == "ok" for status, _ in outputs)
        assert _outcome_key(outcome) == _outcome_key(task.execute())

    @pytest.mark.parametrize("faults", [None, "crash:1"])
    def test_budget_violation_surfaces_as_serial(self, faults):
        """A bit budget every run breaks: each lot errors, the parent
        re-runs the cell serially, and the exception it raises is the
        serial one, type and message."""
        task = _exhaustive_task(gen.random_k_degenerate(6, 2, seed=0),
                                DegenerateBuildProtocol(2),
                                MODELS_BY_NAME["SIMASYNC"], faults,
                                bit_budget=8)
        with pytest.raises(Exception) as serial:
            task.execute()
        with pytest.raises(Exception) as sharded:
            _run_lots_in_process(task, 2)
        assert type(sharded.value) is type(serial.value)
        assert str(sharded.value) == str(serial.value)
