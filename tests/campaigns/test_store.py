"""ResultStore: fingerprint determinism, exact round trips, gc."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.checkers import BuildEqualsInput
from repro.campaigns.store import (
    ResultStore,
    code_version_salt,
    payload_from_jsonable,
    payload_to_jsonable,
    report_from_jsonable,
    report_to_jsonable,
    task_fingerprint,
    witness_from_jsonable,
    witness_to_jsonable,
)
from repro.core import SIMASYNC
from repro.graphs.generators import odd_cycle_graph, random_k_degenerate
from repro.graphs.labeled_graph import LabeledGraph
from repro.protocols.build import DegenerateBuildProtocol
from repro.runtime import ExecutionPlan
from repro.runtime.results import Failure, VerificationReport, WitnessRecord


def build_plan(sizes=(4, 5), seed=0, mode="verify", **kwargs):
    instances = [random_k_degenerate(n, 2, seed=seed) for n in sizes]
    return ExecutionPlan.build(
        DegenerateBuildProtocol(2), SIMASYNC, instances,
        mode=mode, checker=BuildEqualsInput(), keep_runs=False, **kwargs,
    )


class TestFingerprints:
    def test_deterministic_across_plan_builds(self):
        a = build_plan()
        b = build_plan()
        for ta, tb in zip(a.tasks, b.tasks):
            assert task_fingerprint(ta, "s") == task_fingerprint(tb, "s")

    def test_index_does_not_participate(self):
        # The same cell at a different plan position is the same work.
        full = build_plan(sizes=(4, 5))
        tail = build_plan(sizes=(5,))
        assert full.tasks[1].index != tail.tasks[0].index
        assert task_fingerprint(full.tasks[1], "s") == task_fingerprint(
            tail.tasks[0], "s"
        )

    def test_distinct_cells_distinct_fingerprints(self):
        plan = build_plan(sizes=(4, 5, 6))
        prints = {task_fingerprint(t, "s") for t in plan.tasks}
        assert len(prints) == len(plan.tasks)

    def test_instance_seed_changes_fingerprint(self):
        a = build_plan(seed=0).tasks[0]
        b = build_plan(seed=1).tasks[0]
        assert task_fingerprint(a, "s") != task_fingerprint(b, "s")

    def test_salt_changes_fingerprint(self):
        task = build_plan().tasks[0]
        assert task_fingerprint(task, "a") != task_fingerprint(task, "b")

    def test_budget_and_mode_change_fingerprint(self):
        base = build_plan().tasks[0]
        budgeted = build_plan(bit_budget=lambda n: 10_000).tasks[0]
        stressed = build_plan(mode="stress").tasks[0]
        prints = {task_fingerprint(t, "s") for t in (base, budgeted, stressed)}
        assert len(prints) == 3

    def test_env_salt_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_SALT", "pinned")
        assert code_version_salt() == "pinned"
        monkeypatch.delenv("REPRO_CAMPAIGN_SALT")
        salt = code_version_salt()
        assert salt != "pinned" and len(salt) == 16
        # Stable within one source tree.
        assert code_version_salt() == salt


# Payloads protocols actually emit: nested tuples/ints/strings/graphs...
payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.builds(lambda: LabeledGraph(3, [(1, 2)])),
    lambda inner: (
        st.tuples(inner, inner).map(tuple)
        | st.lists(inner, max_size=3)
        | st.frozensets(st.integers(), max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=12,
)


class TestCodec:
    @settings(max_examples=60, deadline=None)
    @given(payloads)
    def test_payload_round_trip(self, payload):
        encoded = payload_to_jsonable(payload)
        json.dumps(encoded)  # must be pure JSON
        assert payload_from_jsonable(encoded) == payload

    def test_unknown_payload_type_is_loud(self):
        with pytest.raises(TypeError):
            payload_to_jsonable(object())

    def test_report_round_trip_with_failures_and_witnesses(self):
        g = random_k_degenerate(4, 2, seed=0)
        report = VerificationReport("p", "SIMASYNC")
        report.instances = 2
        report.executions = 7
        report.exhaustive_instances = 1
        report.max_message_bits = 45
        report.max_bits_by_n = {5: 45, 4: 30}  # insertion order matters
        report.failures = [
            Failure(g, (1, 2, 3, 4), None, "deadlock"),
            Failure(g, (4, 3, 2, 1), ("tuple", 1, g), "wrong-output"),
        ]
        witness = WitnessRecord(
            strategy="greedy-bits", graph=g, model_name="SIMASYNC",
            schedule=(1, 2, 3, 4), bits=45, deadlock=False,
            minimal_schedule=(2,),
        )
        decoded_report = report_from_jsonable(
            json.loads(json.dumps(report_to_jsonable(report))),
            [witness_from_jsonable(
                json.loads(json.dumps(witness_to_jsonable(witness)))
            )],
        )
        report.witnesses = [witness]
        assert decoded_report == report
        assert list(decoded_report.max_bits_by_n) == [5, 4]


class TestStore:
    def test_hit_is_field_identical_to_recompute(self, tmp_path):
        plan = build_plan(mode="stress")
        recomputed = plan.verification_report()
        with ResultStore(tmp_path / "s.db", salt="s") as store:
            for task in plan.tasks:
                outcome = task.execute()
                store.put_outcome(store.fingerprint(task), outcome)
            merged = VerificationReport(
                "+".join(plan.protocol_names), "+".join(plan.model_names)
            )
            for task in plan.tasks:
                served = store.get(store.fingerprint(task))
                assert served is not None
                merged.merge(served)
        assert merged == recomputed

    def test_get_miss_counts(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            assert store.get("nope") is None
            assert store.misses == 1 and store.hits == 0

    def test_put_outcome_requires_report(self, tmp_path):
        from repro.runtime.results import TaskOutcome

        with ResultStore(tmp_path / "s.db") as store:
            with pytest.raises(ValueError):
                store.put_outcome("fp", TaskOutcome(0, None, None))

    def test_persistence_across_reopen(self, tmp_path):
        plan = build_plan()
        path = tmp_path / "s.db"
        with ResultStore(path, salt="s") as store:
            task = plan.tasks[0]
            store.put_outcome(store.fingerprint(task), task.execute())
        with ResultStore(path, salt="s") as store:
            assert store.fingerprint(plan.tasks[0]) in store
            assert store.get(store.fingerprint(plan.tasks[0])) is not None

    def test_gc_keeps_only_live_fingerprints(self, tmp_path):
        plan = build_plan(sizes=(4, 5, 6))
        with ResultStore(tmp_path / "s.db", salt="s") as store:
            prints = []
            for task in plan.tasks:
                fp = store.fingerprint(task)
                store.put_outcome(fp, task.execute())
                prints.append(fp)
            live = set(prints[:1])
            removed = store.gc(live)
            assert removed == len(prints) - 1
            assert store.fingerprints() == live
            # gc with everything live removes nothing
            assert store.gc(live) == 0

    def test_gc_spares_trajectories(self, tmp_path):
        from repro.campaigns import Campaign, quick_campaign

        with ResultStore(tmp_path / "s.db", salt="s") as store:
            Campaign(quick_campaign("q")).run(store)
            assert store.result_count() > 0
            store.gc(live=())
            assert store.result_count() == 0
            assert store.trajectory_rows("q")  # the cross-run record survives

    def test_salt_miss_after_code_change(self, tmp_path):
        plan = build_plan()
        task = plan.tasks[0]
        with ResultStore(tmp_path / "s.db", salt="v1") as store:
            store.put_outcome(store.fingerprint(task), task.execute())
        with ResultStore(tmp_path / "s.db", salt="v2") as store:
            assert store.get(store.fingerprint(task)) is None

    def test_odd_cycle_witness_blob_round_trip(self, tmp_path):
        # A deadlock witness survives the JSONL blob with both forms.
        g = odd_cycle_graph(5)
        witness = WitnessRecord(
            strategy="deadlock-dfs", graph=g, model_name="ASYNC",
            schedule=(1, 2, 5), bits=0, deadlock=True,
            minimal_schedule=(1,),
        )
        report = VerificationReport("p", "ASYNC")
        report.witnesses = [witness]
        with ResultStore(tmp_path / "s.db") as store:
            store.put("fp", report)
            served = store.get("fp")
        assert served.witnesses == [witness]
        assert served.witnesses[0].minimal_schedule == (1,)


def test_minimize_flag_changes_fingerprint():
    with_min = build_plan(mode="stress").tasks[0]
    without = build_plan(mode="stress", minimize_witnesses=False).tasks[0]
    assert task_fingerprint(with_min, "s") != task_fingerprint(without, "s")


def test_gc_scoped_to_campaign_spares_other_rows(tmp_path):
    plan = build_plan(sizes=(4, 5, 6))
    with ResultStore(tmp_path / "s.db", salt="s") as store:
        prints = []
        for i, task in enumerate(plan.tasks):
            fp = store.fingerprint(task)
            campaign = ["a", "b", None][i % 3]
            store.put_outcome(fp, task.execute(), campaign=campaign)
            prints.append(fp)
        # campaign-scoped gc with nothing live: only 'a' rows die
        removed = store.gc(live=(), campaign="a")
        assert removed == 1
        assert prints[0] not in store
        assert prints[1] in store and prints[2] in store
        # global gc with nothing live wipes the rest
        assert store.gc(live=()) == 2
        assert store.result_count() == 0


def test_deadlock_only_cell_stores_instance_n(tmp_path):
    """allow_deadlock cells never touch max_bits_by_n; the n column must
    come from the witness graph, not default to 0."""
    from repro.campaigns import Campaign, quick_campaign

    with ResultStore(tmp_path / "s.db", salt="s") as store:
        Campaign(quick_campaign("q")).run(store)
        rows = dict(store._conn.execute(
            "SELECT protocol, n FROM results"
        ).fetchall())
    assert rows["bfs-bipartite-async"] == 5


class TestMeta:
    def test_meta_round_trip(self, tmp_path):
        with ResultStore(tmp_path / "m.db") as store:
            assert store.get_meta("k") is None
            store.set_meta("k", "v1")
            store.set_meta("k", "v2")
            assert store.get_meta("k") == "v2"
        with ResultStore(tmp_path / "m.db") as store:
            assert store.get_meta("k") == "v2"

    def test_kernel_summary_round_trip(self, tmp_path):
        from repro.telemetry import KernelStats

        kernel = KernelStats(steps=10, searches=2, restarts=1,
                             table_hits=3)
        with ResultStore(tmp_path / "m.db") as store:
            assert store.kernel_summary("camp") is None
            store.record_kernel_summary("camp", kernel)
            assert store.kernel_summary("camp") == kernel
            # all-zero runs record nothing (None clears nothing either)
            store.record_kernel_summary("empty", None)
            assert store.kernel_summary("empty") is None

    def test_store_latency_metrics_only_when_traced(self, tmp_path):
        from repro.telemetry import Tracer, activated

        plan = build_plan(sizes=(4,))
        (task,) = plan.tasks
        fingerprint = task_fingerprint(task)
        with ResultStore(tmp_path / "m.db") as store:
            store.put(fingerprint, task.execute().report, n=task.graph.n)
            tracer = Tracer()
            with activated(tracer):
                assert store.get(fingerprint) is not None
            metrics = tracer.metrics.to_jsonable()
            assert metrics["store.hits"]["value"] == 1
            assert metrics["store.get_seconds"]["count"] == 1
