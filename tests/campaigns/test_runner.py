"""Campaign acceptance: resume-after-kill, pure-cache re-runs, sharding."""

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
)
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
