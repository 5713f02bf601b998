"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

#: The ``kernel:default`` meta row that a stress campaign over
#: ``build-degenerate`` x ``degenerate2`` (n=6, seed 0, threshold 4)
#: stored while the beam still had its batched core and branch-and-bound
#: still counted bound prunes.
OLD_KERNEL_ROW = (
    '{"batch_children": 232, "batch_kept": 92, "bound_prunes": 0, '
    '"frontier_hits": 0, "frontier_stores": 0, "restarts": 5, '
    '"searches": 4, "steps": 504, "table_entries": 0, "table_hits": 0, '
    '"table_misses": 0, "table_stores": 0, "tables": 0}'
)


#: The instance builders ``sweep``/``stress`` (``OLD_FAMILIES``) and
#: ``demo`` (``OLD_DEMOS``) used before every family came from the
#: graph-class registry, kept as the reference the registry must match.
OLD_FAMILIES = {
    "k-degenerate": lambda gen, n, seed: gen.random_k_degenerate(n, 2, seed=seed),
    "random": lambda gen, n, seed: gen.random_graph(n, 0.3, seed=seed),
    "connected": lambda gen, n, seed: gen.random_connected_graph(n, 0.3, seed=seed),
    "eob": lambda gen, n, seed: gen.random_even_odd_bipartite(n, 0.4, seed=seed),
    "path": lambda gen, n, seed: gen.path_graph(n),
    "cycle": lambda gen, n, seed: gen.cycle_graph(n),
    "odd-cycle": lambda gen, n, seed: gen.odd_cycle_graph(
        max(3, n if n % 2 else n - 1)),
    "odd-cycle-probe": lambda gen, n, seed: gen.odd_cycle_with_probe(
        max(5, n if n % 2 else n - 1)),
    "two-cliques": lambda gen, n, seed: gen.two_cliques(max(2, n // 2)),
}
OLD_DEMOS = {
    "build": lambda gen, n, seed: gen.random_k_degenerate(n, 2, seed=seed),
    "mis": lambda gen, n, seed: gen.random_connected_graph(n, 0.3, seed=seed),
    "two-cliques": lambda gen, n, seed: gen.two_cliques(max(2, n // 2)),
    "eob-bfs": lambda gen, n, seed: gen.random_even_odd_bipartite(
        n, 0.4, seed=seed),
    "bfs": lambda gen, n, seed: gen.random_graph(n, 0.3, seed=seed),
}

#: ``stress`` stdout for two protocols, captured while each protocol
#: still ran as its own plan and backend submission.
TWO_PROTOCOL_STRESS = """\
[  2 tasks via serial] build-degenerate(k=2) under SIMASYNC: OK (2 instances, 28 executions, 1 exhaustive, max message 55 bits, 5 witnesses)
    n=  4 exhaustive            45 bits  schedule 1,2,3,4  minimal 2 (1/4 events)
    n=  6 greedy-bits           55 bits  schedule 5,4,6,2,3,1  minimal 5 (1/6 events)
    n=  6 beam                  55 bits  schedule 2,5,4,6,3,1  minimal 5 (1/6 events)
    n=  6 branch-and-bound      55 bits  schedule 1,2,3,4,5,6  minimal 5 (1/6 events)
    n=  6 deadlock-dfs          55 bits  schedule 1,2,3,4,5,6  minimal 5 (1/6 events)
[  2 tasks via serial] eob-bfs-async under ASYNC: OK (2 instances, 28 executions, 1 exhaustive, max message 42 bits, 5 witnesses)
    n=  4 exhaustive            42 bits  schedule 1,2,3,4  minimal 4 (1/4 events)
    n=  6 greedy-bits           42 bits  schedule 4,5,6,2,3,1  minimal 4 (1/6 events)
    n=  6 beam                  42 bits  schedule 3,4,5,6,2,1  minimal 4 (1/6 events)
    n=  6 branch-and-bound      42 bits  schedule 1,2,3,4,5,6  minimal 4 (1/6 events)
    n=  6 deadlock-dfs          42 bits  schedule 1,2,3,4,5,6  minimal 4 (1/6 events)
"""


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        p = build_parser()
        for cmd in ("table2", "fig1", "fig2", "lemma1", "lemma3", "demo"):
            args = p.parse_args([cmd])
            assert args.command == cmd

    def test_demo_choices_come_from_registry(self):
        from repro.cli import _DEMOS
        from repro.graphs.families import FAMILIES
        from repro.protocols.census import CENSUS_BY_KEY

        p = build_parser()
        for name, (census_key, family_name) in _DEMOS.items():
            assert census_key in CENSUS_BY_KEY
            assert family_name in FAMILIES
            assert p.parse_args(["demo", "--protocol", name]).protocol == name
        with pytest.raises(SystemExit):
            p.parse_args(["demo", "--protocol", "not-a-protocol"])

    def test_reproduce_all_quick_jobs_flags(self):
        p = build_parser()
        args = p.parse_args(["reproduce-all", "--quick", "--jobs", "2"])
        assert args.quick and not args.full and args.jobs == 2
        with pytest.raises(SystemExit):
            p.parse_args(["reproduce-all", "--quick", "--full"])

    def test_sweep_requires_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_stress_flags(self):
        p = build_parser()
        args = p.parse_args(["stress", "--protocol", "build-degenerate",
                             "--sizes", "4", "9", "--threshold", "4",
                             "--jobs", "2", "--trace"])
        assert args.protocols == ["build-degenerate"]
        assert args.sizes == [4, 9] and args.threshold == 4
        assert args.jobs == 2 and args.trace
        assert args.score is None
        assert args.store is None
        with pytest.raises(SystemExit):
            p.parse_args(["stress"])  # protocol is required

    def test_removed_table_flag_is_rejected(self):
        # A search cell holds a transposition table exactly when it
        # serves warm frontiers; no flag chooses the table path.
        p = build_parser()
        for argv in (["stress", "--protocol", "eob-bfs"],
                     ["campaign", "run", "--store", "s.db",
                      "--protocol", "eob-bfs"],
                     ["campaign", "gc", "--store", "s.db",
                      "--protocol", "eob-bfs"]):
            p.parse_args(argv)
            with pytest.raises(SystemExit):
                p.parse_args(argv + ["--share-table"])

    def test_stress_score_choices_come_from_registry(self):
        from repro.adversaries import SCORE_HOOKS

        p = build_parser()
        for name in SCORE_HOOKS:
            args = p.parse_args(["stress", "--protocol", "eob-bfs",
                                 "--score", name])
            assert args.score == name
        with pytest.raises(SystemExit):
            p.parse_args(["stress", "--protocol", "eob-bfs",
                          "--score", "not-a-hook"])


class TestCommands:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_lemma1(self, capsys):
        assert main(["lemma1", "--kmax", "2", "--sizes", "16", "32"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 1" in out and "k=2" in out

    def test_lemma3(self, capsys):
        assert main(["lemma3", "--sizes", "16", "64"]) == 0
        assert "all graphs" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "proto", ["build", "mis", "two-cliques", "eob-bfs", "bfs"]
    )
    def test_demo(self, proto, capsys):
        assert main(["demo", "--protocol", proto, "--n", "8", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "whiteboard" in out and "output:" in out

    def test_table2_quick(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "BUILD k-degenerate" in out
        assert "matches the paper: True" in out

    def test_sweep_serial(self, capsys):
        assert main(["sweep", "--protocol", "build-degenerate",
                     "--family", "k-degenerate", "--sizes", "4", "8",
                     "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "via serial" in out and "OK" in out and "n=8" in out

    def test_sweep_parallel_jobs(self, capsys):
        assert main(["sweep", "--protocol", "build-degenerate",
                     "--protocol", "mis-greedy", "--family", "k-degenerate",
                     "--sizes", "4", "6", "--seeds", "0", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "via process-pool" in out
        assert "build-degenerate" in out and "mis-greedy" in out

    def test_sweep_without_registered_oracle(self, capsys):
        # No checker registered for the diameter protocols: the sweep
        # falls back to AcceptAny and still measures sizes/deadlocks.
        assert main(["sweep", "--protocol", "diameter-degenerate",
                     "--family", "k-degenerate", "--sizes", "4",
                     "--seeds", "0"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_stress_serial_with_trace(self, capsys):
        assert main(["stress", "--protocol", "build-degenerate",
                     "--family", "k-degenerate", "--sizes", "4", "8",
                     "--seeds", "0", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "via serial" in out and "witnesses" in out
        assert "exhaustive" in out  # the n=4 cell enumerated every schedule
        assert "branch-and-bound" in out  # the n=8 cell searched
        assert "worst witness found by" in out  # --trace narration

    def test_stress_parallel_jobs(self, capsys):
        assert main(["stress", "--protocol", "eob-bfs", "--family", "eob",
                     "--sizes", "5", "8", "--seeds", "0",
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "via process-pool" in out and "eob-bfs" in out

    def test_stress_store_round_trip_executes_zero_tasks(self, tmp_path,
                                                         capsys):
        store_path = str(tmp_path / "stress.db")
        base = ["stress", "--protocol", "eob-bfs", "--family", "eob",
                "--sizes", "4", "6", "--seeds", "0", "--threshold", "4",
                "--store", store_path]
        assert main(base) == 0
        cold = capsys.readouterr().out
        assert "[store: 0 hits, 2 executed]" in cold
        assert main(base) == 0
        warm = capsys.readouterr().out
        # The unchanged re-run is a pure cache read...
        assert "[store: 2 hits, 0 executed]" in warm
        # ...and field-identical: the listings only differ in the
        # store-accounting prefix.
        assert (cold.replace("0 hits, 2 executed", "X")
                == warm.replace("2 hits, 0 executed", "X"))

    def test_sweep_store_round_trip_executes_zero_tasks(self, tmp_path,
                                                        capsys):
        store_path = str(tmp_path / "sweep.db")
        base = ["sweep", "--protocol", "build-degenerate",
                "--family", "k-degenerate", "--sizes", "4", "--seeds", "0",
                "--store", store_path]
        assert main(base) == 0
        assert "[store: 0 hits, 1 executed]" in capsys.readouterr().out
        assert main(base) == 0
        assert "[store: 1 hits, 0 executed]" in capsys.readouterr().out

    def test_stress_score_knob_runs_and_fingerprints_separately(
            self, tmp_path, capsys):
        store_path = str(tmp_path / "scored.db")
        base = ["stress", "--protocol", "eob-bfs", "--family", "eob",
                "--sizes", "6", "--seeds", "0", "--threshold", "4",
                "--store", store_path]
        assert main(base) == 0
        capsys.readouterr()
        # A different badness hook is different durable work: the search
        # cell misses, it is not served the bits-greedy result.
        assert main(base + ["--score", "deadlock-first"]) == 0
        assert "[store: 0 hits, 1 executed]" in capsys.readouterr().out


def _matches_or_rejects(old_builder, cls, n, seed):
    """The registry draws the old builder's graph, or rejects a size the
    old builder silently clamped to another node count."""
    from repro.graphs import generators as gen

    old = old_builder(gen, n, seed)
    if old.n == n:
        assert cls.sample_in_class(n, seed) == old, (cls.name, n, seed)
    else:
        with pytest.raises(ValueError):
            cls.sample_in_class(n, seed)


class TestOneFamilyRegistry:
    @pytest.mark.parametrize("name", sorted(OLD_FAMILIES))
    def test_registry_draws_the_old_sweep_graphs(self, name):
        from repro.graphs.families import family

        for n in range(3, 11):
            for seed in range(3):
                _matches_or_rejects(OLD_FAMILIES[name], family(name), n, seed)

    @pytest.mark.parametrize("name", sorted(OLD_DEMOS))
    def test_registry_draws_the_old_demo_graphs(self, name):
        from repro.cli import _DEMOS
        from repro.graphs.families import family

        cls = family(_DEMOS[name][1])
        for n in range(3, 11):
            for seed in range(3):
                _matches_or_rejects(OLD_DEMOS[name], cls, n, seed)

    @pytest.mark.parametrize("argv, family_name, size", [
        (["stress", "--protocol", "two-cliques", "--family", "two-cliques",
          "--sizes", "4", "9"], "two-cliques", "9"),
        (["stress", "--protocol", "bfs-bipartite-async",
          "--family", "odd-cycle", "--sizes", "4"], "odd-cycle", "4"),
        (["sweep", "--protocol", "bfs-sync", "--family", "cycle",
          "--sizes", "2"], "cycle", "2"),
        (["demo", "--protocol", "two-cliques", "--n", "7"],
         "two-cliques", "7"),
    ])
    def test_unsampleable_size_is_a_usage_error(self, argv, family_name,
                                                size, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value.code)
        assert message.startswith(f"{argv[0]}: ")
        assert family_name in message and f"size {size} " in message
        assert capsys.readouterr().out == ""  # nothing ran

    def test_two_protocols_run_in_one_submission(self, monkeypatch, capsys):
        from repro.runtime.backends import SerialBackend

        calls = []
        original = SerialBackend.run

        def counting_run(self, tasks):
            calls.append(len(tasks))
            return original(self, tasks)

        monkeypatch.setattr(SerialBackend, "run", counting_run)
        assert main(["stress", "--protocol", "build-degenerate",
                     "--protocol", "eob-bfs", "--family", "k-degenerate",
                     "--sizes", "4", "6", "--seeds", "0",
                     "--threshold", "4"]) == 0
        assert calls == [4]
        assert capsys.readouterr().out == TWO_PROTOCOL_STRESS

    def test_stress_cell_is_a_campaign_cell(self, tmp_path, capsys):
        from repro.campaigns import Campaign, CampaignCell, CampaignSpec
        from repro.campaigns.store import ResultStore

        store_path = str(tmp_path / "alias.db")
        assert main(["stress", "--protocol", "build-degenerate",
                     "--family", "k-degenerate", "--sizes", "4", "6",
                     "--seeds", "0", "1", "--store", store_path]) == 0
        with ResultStore(store_path) as store:
            stored = store.fingerprints()
        assert len(stored) == 4
        capsys.readouterr()
        assert main(["campaign", "run", "--store", store_path,
                     "--protocol", "build-degenerate",
                     "--family", "degenerate2", "--sizes", "4", "6",
                     "--seeds", "0", "1", "--expect-hit-rate", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "4 tasks, 4 hits, 0 executed" in out
        spec = CampaignSpec("default", (CampaignCell(
            "build-degenerate", "degenerate2", (4, 6), (0, 1)),))
        with ResultStore(store_path) as store:
            assert store.fingerprints() == stored
            assert Campaign(spec).live_fingerprints(store) == stored


class TestCampaignParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_run_flags(self):
        p = build_parser()
        args = p.parse_args([
            "campaign", "run", "--store", "x.db", "--name", "nightly",
            "--protocol", "build-degenerate", "--family", "odd-cycle-probe",
            "--sizes", "5", "7", "--seeds", "0", "1", "--jobs", "2",
            "--allow-deadlock", "--expect-hit-rate", "0.9",
        ])
        assert args.campaign_command == "run"
        assert args.store == "x.db" and args.name == "nightly"
        assert args.protocols == ["build-degenerate"]
        assert args.families == ["odd-cycle-probe"]
        assert args.sizes == [5, 7] and args.seeds == [0, 1]
        assert args.jobs == 2 and args.allow_deadlock
        assert args.expect_hit_rate == pytest.approx(0.9)

    def test_store_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "run", "--quick"])

    def test_family_choices_come_from_graph_class_registry(self):
        from repro.graphs.families import FAMILIES

        p = build_parser()
        for name in FAMILIES:
            args = p.parse_args(["campaign", "run", "--store", "x",
                                 "--family", name, "--quick"])
            assert args.families == [name]
        with pytest.raises(SystemExit):
            p.parse_args(["campaign", "run", "--store", "x",
                          "--family", "not-a-family"])


class TestCampaignCommands:
    def test_run_status_report_gc_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "c.db")
        assert main(["campaign", "run", "--quick", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "0 hits" in out and "generation 1" in out

        # warm re-run: pure cache read, gate on the hit rate
        assert main(["campaign", "run", "--quick", "--store", store,
                     "--expect-hit-rate", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out and "(100% cached)" in out

        assert main(["campaign", "status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "cached results: 3" in out and "2 trajectory generation" in out

        assert main(["campaign", "report", "--store", store,
                     "--name", "default", "--diff", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "DEADLOCK" in out and "identical extremal records" in out

        assert main(["campaign", "gc", "--quick", "--store", store]) == 0
        assert "removed 0 stale results, 3 remain" in capsys.readouterr().out

    def test_expect_hit_rate_fails_cold(self, tmp_path, capsys):
        store = str(tmp_path / "cold.db")
        assert main(["campaign", "run", "--quick", "--store", store,
                     "--expect-hit-rate", "0.9"]) == 1
        assert "EXPECTED hit rate" in capsys.readouterr().out

    def test_gc_drops_results_of_abandoned_spec(self, tmp_path, capsys):
        store = str(tmp_path / "gc.db")
        assert main(["campaign", "run", "--quick", "--store", store]) == 0
        # a different spec under the same name: nothing stays live
        assert main(["campaign", "gc", "--store", store,
                     "--protocol", "build-degenerate",
                     "--family", "degenerate2", "--sizes", "6",
                     "--seeds", "0"]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "cached results: 0" in out
        # trajectory-only campaigns stay visible in status
        assert "default: 0 results, 1 trajectory generation(s)" in out

    def test_gc_is_scoped_to_the_named_campaign(self, tmp_path, capsys):
        store = str(tmp_path / "scoped.db")
        assert main(["campaign", "run", "--quick", "--store", store,
                     "--name", "a"]) == 0
        assert main(["campaign", "run", "--store", store, "--name", "b",
                     "--protocol", "bfs-sync", "--family", "all",
                     "--sizes", "6", "--seeds", "0"]) == 0
        capsys.readouterr()
        # gc of campaign 'a' under an abandoned spec: only a's rows die
        assert main(["campaign", "gc", "--store", store, "--name", "a",
                     "--protocol", "build-degenerate",
                     "--family", "degenerate2", "--sizes", "6",
                     "--seeds", "0"]) == 0
        assert "removed 3 stale results" in capsys.readouterr().out
        assert main(["campaign", "status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "a: 0 results, 1 trajectory generation(s)" in out
        assert "b: 1 results, 1 trajectory generation(s)" in out

    def test_status_renders_kernel_row_with_retired_fields(self, tmp_path,
                                                            capsys):
        """A ``kernel:`` meta row written before the batched beam core
        and bound pruning were removed still carries
        ``batch_children``/``batch_kept``/``bound_prunes``; it must load
        (unknown names are dropped) and ``status`` must still render
        it."""
        from repro.campaigns.store import ResultStore
        from repro.telemetry import KernelStats

        store = str(tmp_path / "old.db")
        assert main(["campaign", "run", "--quick", "--store", store]) == 0
        with ResultStore(store) as db:
            db.set_meta("kernel:default", OLD_KERNEL_ROW)
            assert db.kernel_summary("default") == KernelStats(
                steps=504, searches=4, restarts=5)
        capsys.readouterr()
        assert main(["campaign", "status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert ("kernel (last run): 504 steps, 4 searches, 5 restarts\n"
                in out)

    def test_run_without_protocol_or_quick_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "--store", str(tmp_path / "x.db")])

    def test_stress_listing_shows_minimal_schedule(self, capsys):
        assert main(["stress", "--protocol", "build-degenerate",
                     "--family", "k-degenerate", "--sizes", "4",
                     "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "minimal" in out and "events)" in out


class TestTelemetryCli:
    def test_trace_out_flag_parses_everywhere(self):
        p = build_parser()
        for argv in (["stress", "--protocol", "eob-bfs",
                      "--trace-out", "t.jsonl"],
                     ["sweep", "--protocol", "eob-bfs",
                      "--trace-out", "t.jsonl"],
                     ["campaign", "run", "--quick", "--store", "s.db",
                      "--trace-out", "t.jsonl"]):
            assert p.parse_args(argv).trace_out == "t.jsonl"
        assert p.parse_args(["stress", "--protocol",
                             "eob-bfs"]).trace_out is None

    def test_telemetry_subcommands_parse(self):
        p = build_parser()
        args = p.parse_args(["telemetry", "report", "t.jsonl", "--top", "3"])
        assert args.telemetry_command == "report"
        assert args.trace == "t.jsonl" and args.top == 3
        args = p.parse_args(["telemetry", "validate", "t.jsonl"])
        assert args.telemetry_command == "validate"

    def test_stress_trace_out_stdout_identical_and_valid(self, tmp_path,
                                                         capsys):
        trace_path = str(tmp_path / "run.jsonl")
        base = ["stress", "--protocol", "build-degenerate",
                "--family", "k-degenerate", "--sizes", "4", "6",
                "--seeds", "0", "--threshold", "4"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        assert main(base + ["--trace-out", trace_path]) == 0
        traced = capsys.readouterr().out
        # observation-only: the human listing cannot tell tracing ran
        assert traced == plain

        assert main(["telemetry", "validate", trace_path]) == 0
        assert "ok: run" in capsys.readouterr().out
        assert main(["telemetry", "report", trace_path]) == 0
        report = capsys.readouterr().out
        assert "per-cell timings:" in report
        assert "build-degenerate(k=2)/n=6" in report

    def test_campaign_trace_out_and_status_kernel(self, tmp_path, capsys):
        store = str(tmp_path / "camp.db")
        trace_path = str(tmp_path / "camp.jsonl")
        assert main(["campaign", "run", "--quick", "--store", store,
                     "--trace-out", trace_path]) == 0
        capsys.readouterr()
        assert main(["telemetry", "validate", trace_path]) == 0
        out = capsys.readouterr().out
        assert "ok: run" in out and "3 tasks" in out

    def test_validate_missing_trace_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["telemetry", "validate", str(tmp_path / "nope.jsonl")])

    def test_kernel_summary_goes_to_stderr(self, capsys):
        # CI byte-diffs stress stdout across backends; the kernel line
        # must not pollute it
        assert main(["stress", "--protocol", "build-degenerate",
                     "--family", "k-degenerate", "--sizes", "6",
                     "--seeds", "0", "--threshold", "4"]) == 0
        captured = capsys.readouterr()
        assert "kernel:" not in captured.out
        assert "kernel:" in captured.err
