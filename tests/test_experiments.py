"""Tests for the executable experiment index (E1-E20)."""

import pytest

from repro.experiments import (
    CATALOG,
    ExperimentResult,
    get_experiment,
    run_all,
    run_experiment,
)


class TestCatalog:
    def test_catalog_complete(self):
        assert len(CATALOG) == 20
        assert [e.experiment_id for e in CATALOG] == [f"E{i}" for i in range(1, 21)]

    def test_lookup(self):
        assert get_experiment("E5").experiment_id == "E5"
        assert get_experiment("e5").experiment_id == "E5"  # case-insensitive

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_experiment("E99")

    def test_titles_and_artifacts_present(self):
        for exp in CATALOG:
            assert exp.title and exp.paper_artifact


class TestRegeneration:
    @pytest.mark.parametrize("exp_id", [f"E{i}" for i in range(1, 21)])
    def test_each_experiment_ok(self, exp_id):
        result = run_experiment(exp_id, quick=True)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == exp_id
        assert result.ok, result.artifact
        assert result.artifact  # non-empty rendering

    def test_run_all(self):
        results = run_all(quick=True)
        assert len(results) == 20
        assert all(r.ok for r in results)

    def test_run_all_parallel_subset_keeps_order(self):
        ids = ["E1", "E7", "E3"]
        results = run_all(quick=True, jobs=2, experiment_ids=ids)
        assert [r.experiment_id for r in results] == ids
        assert all(r.ok for r in results)

    def test_e16_summary_is_reproducible(self, monkeypatch):
        import time

        first = run_experiment("E16", quick=True)
        real = time.perf_counter
        # A machine ten times slower still passes and prints the same.
        monkeypatch.setattr(time, "perf_counter", lambda: real() * 10)
        second = run_experiment("E16", quick=True)
        assert first.ok and second.ok
        assert first.artifact == second.artifact

    def test_e16_keeps_its_time_gate(self, monkeypatch):
        import time

        real = time.perf_counter
        monkeypatch.setattr(time, "perf_counter", lambda: real() * 1e6)
        assert not run_experiment("E16", quick=True).ok

    def test_table2_details(self):
        result = run_experiment("E2", quick=True)
        assert result.details.get("matches_paper") is True


class TestCli:
    def test_experiment_command(self, capsys):
        from repro.cli import main

        assert main(["experiment", "E7"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 3" in out and "verdict: OK" in out

    def test_reproduce_all_command(self, capsys):
        from repro.cli import main

        assert main(["reproduce-all"]) == 0
        assert "20/20" in capsys.readouterr().out
