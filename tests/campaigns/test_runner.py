"""Campaign acceptance: resume-after-kill, pure-cache re-runs, sharding."""

import json
import shutil
from dataclasses import replace

import pytest

from repro.analysis.checkers import BuildEqualsInput
from repro.analysis.verify import verify_protocol
from repro.campaigns import (
    Campaign,
    CampaignCell,
    CampaignSpec,
    ResultStore,
    quick_campaign,
    run_plan_with_store,
    warm_smoke_campaign,
)
from repro.campaigns.store import report_to_jsonable, witness_to_jsonable
from repro.core import SIMASYNC
from repro.graphs.generators import random_k_degenerate
from repro.protocols.build import DegenerateBuildProtocol
from repro.runtime import ExecutionPlan, ProcessPoolBackend, SerialBackend
from repro.runtime.backends import Backend


class KillAfter(Backend):
    """Serial backend that dies after yielding ``survive`` outcomes —
    the 'killed campaign' of the acceptance criteria."""

    name = "kill-after"

    def __init__(self, survive: int) -> None:
        self.survive = survive

    def map(self, fn, items):
        for count, item in enumerate(items):
            if count >= self.survive:
                raise KeyboardInterrupt("simulated kill")
            yield fn(item)


class CountingBackend(SerialBackend):
    """Serial backend that counts its ``run`` submissions."""

    def __init__(self) -> None:
        self.submissions = 0

    def run(self, tasks):
        self.submissions += 1
        return super().run(tasks)


def spec(name="t"):
    return CampaignSpec(
        name=name,
        cells=(
            CampaignCell("build-degenerate", "degenerate2", (4, 5), (0, 1)),
            CampaignCell("bfs-bipartite-async", "odd-cycle-probe", (5,), (0,),
                         allow_deadlock=True),
        ),
        mode="stress",
        exhaustive_threshold=5,
    )


class TestCampaignRun:
    def test_cold_run_executes_everything(self, tmp_path):
        with ResultStore(tmp_path / "s.db", salt="s") as store:
            result = Campaign(spec()).run(store)
        assert result.ok
        assert result.tasks == 5  # 4 build instances + 1 probe gadget
        assert result.executed == result.tasks and result.hits == 0
        assert result.generation == 1
        assert any(w.deadlock for w in result.report.witnesses)
        assert all(w.minimal_schedule is not None
                   for w in result.report.witnesses)

    def test_unchanged_rerun_is_pure_cache_read(self, tmp_path):
        with ResultStore(tmp_path / "s.db", salt="s") as store:
            first = Campaign(spec()).run(store)
            second = Campaign(spec()).run(store)
        assert second.executed == 0
        assert second.hits == second.tasks
        assert second.hit_rate == 1.0
        assert second.report == first.report
        assert [c.report for c in second.cells] == [
            c.report for c in first.cells
        ]

    def test_killed_and_resumed_equals_uninterrupted(self, tmp_path):
        campaign = Campaign(spec())
        with ResultStore(tmp_path / "clean.db", salt="s") as store:
            uninterrupted = campaign.run(store)
            clean_rows = store.trajectory_rows("t", 1)

        with ResultStore(tmp_path / "killed.db", salt="s") as store:
            with pytest.raises(KeyboardInterrupt):
                campaign.run(store, backend=KillAfter(2))
            # The two outcomes that streamed before the kill are durable;
            # no trajectory generation was recorded for the dead run.
            assert store.result_count() == 2
            assert store.latest_generation("t") == 0

            resumed = campaign.run(store)
            assert resumed.hits == 2
            assert resumed.executed == uninterrupted.tasks - 2
            assert resumed.report == uninterrupted.report
            assert [c.report for c in resumed.cells] == [
                c.report for c in uninterrupted.cells
            ]
            assert store.trajectory_rows("t", 1) == clean_rows

    def test_process_pool_backend_field_identical(self, tmp_path):
        campaign = Campaign(spec())
        with ResultStore(tmp_path / "serial.db", salt="s") as store:
            serial = campaign.run(store, backend=SerialBackend())
        with ResultStore(tmp_path / "pool.db", salt="s") as store:
            pooled = campaign.run(store, backend=ProcessPoolBackend(jobs=2))
        assert pooled.report == serial.report
        assert store_rows(tmp_path / "pool.db") == store_rows(
            tmp_path / "serial.db"
        )

    def test_quick_campaign_spec_is_valid_and_small(self):
        quick = quick_campaign("smoke")
        assert quick.name == "smoke"
        assert 1 <= sum(len(c.sizes) * len(c.seeds) for c in quick.cells) <= 4
        keys = {c.protocol_key for c in quick.cells}
        assert "bfs-bipartite-async" in keys  # the Corollary 4 cell

    def test_kernel_knobs_are_durable_identity(self, tmp_path):
        """score participates in the campaign's fingerprints: another
        badness hook is different durable work for search cells."""
        from dataclasses import replace

        base = CampaignSpec(
            name="t",
            cells=(CampaignCell("eob-bfs", "even-odd-bipartite", (6,), (1,)),),
            mode="stress",
            exhaustive_threshold=4,
        )
        with ResultStore(tmp_path / "s.db", salt="s") as store:
            plain = Campaign(base).run(store)
            scored = Campaign(replace(base, score="deadlock-first")).run(store)
            assert scored.hits == 0  # different fingerprint, not served
            again = Campaign(replace(base, score="deadlock-first")).run(store)
            assert again.hits == again.tasks  # the knob round-trips
            assert again.report.witnesses == scored.report.witnesses
            assert Campaign(base).run(store).hits == plain.tasks

    def test_kernel_knobs_require_stress_mode(self):
        with pytest.raises(ValueError, match="search-kernel knob"):
            CampaignSpec(
                name="x",
                cells=(CampaignCell("eob-bfs", "even-odd-bipartite", (6,), (1,)),),
                mode="verify",
                score="bits-greedy",
            )

    def test_unknown_cell_arguments_rejected(self):
        with pytest.raises(ValueError):
            CampaignCell("no-such-protocol", "degenerate2", (4,), (0,))
        with pytest.raises(ValueError):
            CampaignCell("build-degenerate", "no-such-family", (4,), (0,))
        with pytest.raises(ValueError):
            CampaignSpec("x", cells=())
        with pytest.raises(ValueError):
            CampaignSpec(
                "x",
                cells=(CampaignCell("build-degenerate", "degenerate2",
                                    (4,), (0,)),),
                mode="exhaustive",
            )


def three_cells(name="t3"):
    return CampaignSpec(
        name=name,
        cells=(
            CampaignCell("build-degenerate", "degenerate2", (4,), (0, 1)),
            CampaignCell("build-forest", "forests", (4, 5), (0,)),
            CampaignCell("bfs-bipartite-async", "odd-cycle-probe", (5,), (0,),
                         allow_deadlock=True),
        ),
        mode="stress",
        exhaustive_threshold=5,
    )


def cell_counts(result):
    return [(c.tasks, c.hits, c.executed) for c in result.cells]


def cell_by_cell(spec, store, **kwargs):
    """The reference semantics: each cell run as its own campaign, in
    spec order, against one store."""
    return [Campaign(replace(spec, cells=(cell,))).run(store, **kwargs)
            for cell in spec.cells]


class TestOneSubmission:
    """A campaign run streams every cell's misses through one backend
    submission; reports, hit counts and commits stay cell-by-cell."""

    def test_campaign_without_repeats_submits_once(self, tmp_path):
        backend = CountingBackend()
        with ResultStore(tmp_path / "s.db", salt="s") as store:
            result = Campaign(three_cells()).run(store, backend=backend)
            again = Campaign(three_cells()).run(store, backend=backend)
        assert backend.submissions == 1
        assert result.executed == result.tasks == 5
        assert again.hits == again.tasks  # an all-hit run submits nothing

    def test_kill_inside_second_cell_resumes_field_identical(self, tmp_path):
        campaign = Campaign(three_cells())
        with ResultStore(tmp_path / "clean.db", salt="s") as store:
            uninterrupted = campaign.run(store)
            clean_rows = store.trajectory_rows("t3", 1)
        first = uninterrupted.cells[0].tasks
        survive = first + 1  # one outcome into the second cell
        assert survive < first + uninterrupted.cells[1].tasks

        with ResultStore(tmp_path / "killed.db", salt="s") as store:
            with pytest.raises(KeyboardInterrupt):
                campaign.run(store, backend=KillAfter(survive))
            assert store.result_count() == survive
            assert store.latest_generation("t3") == 0

            resumed = campaign.run(store)
            assert resumed.hits == survive
            assert [c.hits for c in resumed.cells] == [first, 1, 0]
            assert resumed.executed == uninterrupted.tasks - survive
            assert resumed.report == uninterrupted.report
            assert [c.report for c in resumed.cells] == [
                c.report for c in uninterrupted.cells
            ]
            assert store.trajectory_rows("t3", 1) == clean_rows

    def test_repeated_fingerprint_starts_a_new_submission(self, tmp_path):
        """The second cell repeats the first cell's n=4 instance: it
        must see that task committed (a hit), as a cell-by-cell run."""
        repeat = CampaignSpec(
            name="r",
            cells=(
                CampaignCell("build-degenerate", "degenerate2", (4,), (0,)),
                CampaignCell("build-degenerate", "degenerate2", (4, 5), (0,)),
            ),
            mode="stress",
            exhaustive_threshold=5,
        )
        with ResultStore(tmp_path / "ref.db", salt="s") as store:
            reference = cell_by_cell(repeat, store)
        backend = CountingBackend()
        with ResultStore(tmp_path / "s.db", salt="s") as store:
            result = Campaign(repeat).run(store, backend=backend)
        assert backend.submissions == 2
        assert cell_counts(result) == [(1, 0, 1), (2, 1, 1)]
        assert cell_counts(result) == [
            cell for ref in reference for cell in cell_counts(ref)
        ]
        assert [c.report for c in result.cells] == [
            ref.cells[0].report for ref in reference
        ]

    def test_repeated_frontier_cell_key_starts_a_new_submission(
            self, tmp_path):
        """``allow_deadlock`` enters the fingerprint but not the frontier
        cell key: the twin cell must load the frontiers the first cell
        exported, as a cell-by-cell warm run does."""
        twin = CampaignSpec(
            name="w",
            cells=(
                CampaignCell("bfs-bipartite-async", "even-odd-bipartite",
                             (6,), (0,)),
                CampaignCell("bfs-bipartite-async", "even-odd-bipartite",
                             (6,), (0,), allow_deadlock=True),
            ),
            mode="stress",
            exhaustive_threshold=5,
        )
        with ResultStore(tmp_path / "ref.db", salt="s") as store:
            reference = cell_by_cell(twin, store, warm_frontiers=True)
        backend = CountingBackend()
        with ResultStore(tmp_path / "s.db", salt="s") as store:
            result = Campaign(twin).run(store, backend=backend,
                                        warm_frontiers=True)
        assert backend.submissions == 2
        assert reference[1].kernel.frontier_hits > 0
        assert cell_counts(result) == [(1, 0, 1), (1, 0, 1)]
        assert [c.report for c in result.cells] == [
            ref.cells[0].report for ref in reference
        ]
        assert result.kernel == reference[0].kernel.merge(reference[1].kernel)

    def test_cli_stdout_keeps_per_cell_semantics(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "c.db")
        assert main(["campaign", "run", "--store", store,
                     "--protocol", "build-degenerate",
                     "--protocol", "build-degenerate",
                     "--sizes", "4", "5", "--seeds", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith(
            "  build-degenerate x degenerate2: 2 tasks, 0 hits, 2 executed")
        assert lines[2].startswith(
            "  build-degenerate x degenerate2: 2 tasks, 2 hits, 0 executed")
        assert "4 tasks, 2 store hits, 2 executed (50% cached)" in lines[3]

    def test_traced_pool_run_has_campaign_wide_task_indices(self, tmp_path):
        from repro.cli import main
        from repro.telemetry import RunTelemetry, validate_trace

        spec = three_cells()
        path = tmp_path / "run.jsonl"
        with ResultStore(tmp_path / "s.db", salt="s") as store:
            # Serve the first cell from the store, so the trace holds
            # both store hits and executed tasks.
            Campaign(replace(spec, cells=spec.cells[:1])).run(store)
            with RunTelemetry(path, command="test") as session:
                with session.activate():
                    result = Campaign(spec).run(
                        store, backend=ProcessPoolBackend(jobs=2),
                        telemetry=session)
        manifest = validate_trace(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        tasks = [r["index"] for r in records if r["type"] == "task"]
        hits = [r["index"] for r in records if r["type"] == "store-hit"]
        first = result.cells[0].tasks
        assert hits == list(range(first))
        assert tasks == list(range(first, result.tasks))
        assert manifest["tasks"] == result.executed
        assert manifest["store_hits"] == result.hits
        assert len(manifest["plans"]) == len(spec.cells)
        assert main(["telemetry", "report", str(path)]) == 0


def result_json(result):
    """Every cell's report, witness list and hit count (and the merged
    report) as canonical JSON."""
    def dumped(report):
        return (json.dumps(report_to_jsonable(report), sort_keys=True),
                [json.dumps(witness_to_jsonable(w), sort_keys=True)
                 for w in report.witnesses])

    return ([(dumped(c.report), c.tasks, c.hits) for c in result.cells],
            dumped(result.report))


class TestLoweredOnce:
    """One ``Campaign`` object lowers its spec once; re-running it is
    byte-identical to a fresh object's re-run."""

    @pytest.mark.parametrize("make_backend", [
        SerialBackend, lambda: ProcessPoolBackend(jobs=2),
    ], ids=["serial", "pool"])
    def test_rerun_equals_fresh_campaign_rerun(self, tmp_path, sample_calls,
                                               make_backend):
        campaign = Campaign(spec())
        with ResultStore(tmp_path / "s.db", salt="s") as store:
            cold = campaign.run(store, backend=make_backend())
        shutil.copyfile(tmp_path / "s.db", tmp_path / "copy.db")
        with ResultStore(tmp_path / "s.db", salt="s") as store:
            cached = campaign.run(store, backend=make_backend())
        # 4 BUILD instances and 1 probe gadget, each sampled once over
        # both runs of the one object.
        assert sorted(sample_calls) == sorted(set(sample_calls)) and len(sample_calls) == 5

        with ResultStore(tmp_path / "copy.db", salt="s") as store:
            fresh = Campaign(spec()).run(store, backend=make_backend())
        assert len(sample_calls) == 10  # the fresh object lowers its own spec
        assert cached.executed == fresh.executed == 0
        assert cached.generation == fresh.generation == 2
        assert result_json(cached) == result_json(fresh)
        assert cached.report == fresh.report == cold.report
        assert [c.report for c in cached.cells] == [
            c.report for c in cold.cells
        ]

    def test_liveness_queries_reuse_the_lowering(self, tmp_path,
                                                  sample_calls):
        campaign = Campaign(warm_smoke_campaign())
        assert sample_calls == []  # lowering is lazy
        with ResultStore(tmp_path / "s.db", salt="s") as store:
            live = campaign.live_fingerprints(store)
            keys = campaign.live_frontier_cell_keys()
            campaign.run(store)
            assert store.fingerprints() == live
        assert len(sample_calls) == 1 and len(keys) == 1


def store_rows(path):
    with ResultStore(path, salt="s") as store:
        return store.trajectory_rows("t", 1)


class TestPlanReuse:
    def plan(self):
        instances = [random_k_degenerate(n, 2, seed=n) for n in (4, 6)]
        return ExecutionPlan.build(
            DegenerateBuildProtocol(2), SIMASYNC, instances,
            mode="verify", checker=BuildEqualsInput(), keep_runs=False,
        )

    def test_run_plan_with_store_matches_plain_run(self, tmp_path):
        plan = self.plan()
        plain = plan.verification_report()
        with ResultStore(tmp_path / "s.db", salt="s") as store:
            cold = run_plan_with_store(plan, store)
            warm = run_plan_with_store(plan, store)
            assert store.writes == len(plan.tasks)  # warm pass wrote nothing
        assert cold == plain
        assert warm == plain

    def test_verify_protocol_store_reuse(self, tmp_path):
        instances = [random_k_degenerate(n, 2, seed=n) for n in (4, 6)]
        kwargs = dict(
            protocol=DegenerateBuildProtocol(2),
            model=SIMASYNC,
            instances=instances,
            checker=BuildEqualsInput(),
        )
        plain = verify_protocol(**kwargs)
        with ResultStore(tmp_path / "s.db", salt="s") as store:
            cold = verify_protocol(**kwargs, store=store)
            hits_before = store.hits
            warm = verify_protocol(**kwargs, store=store)
            assert store.hits == hits_before + len(instances)
        assert cold == plain and warm == plain
