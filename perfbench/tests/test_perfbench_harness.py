"""Tests of the benchmark harness itself (not of ``repro``).

Run with ``PYTHONPATH=src python -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import pytest  # noqa: E402

from perfbench import child, ledger, workloads  # noqa: E402
from perfbench import run as bench_run  # noqa: E402
from repro.campaigns import CampaignCell, task_fingerprint  # noqa: E402

SALT = "perfbench-test-salt"


def _fingerprints(name: str, seed: int, tmp_path: Path) -> list[str]:
    workload = workloads.WORKLOADS[name](seed, 1, tmp_path)
    workload.build_plans()
    plans = [plan for _, plan in workload.plans]
    return [task_fingerprint(task, SALT) for plan in plans for task in plan]


@pytest.mark.parametrize("name", ["exhaustive", "search", "campaign"])
def test_same_seed_same_fingerprints(name, tmp_path):
    assert _fingerprints(name, 7, tmp_path) == _fingerprints(name, 7, tmp_path)


@pytest.mark.parametrize("name", ["exhaustive", "search", "campaign"])
def test_other_seed_other_fingerprints(name, tmp_path):
    assert _fingerprints(name, 7, tmp_path) != _fingerprints(name, 8, tmp_path)


class _TinySearch(workloads.Search):
    """The search workload's plan path on two cells small enough for a
    unit test."""

    def cells(self):
        return [CampaignCell("build-degenerate", "degenerate2", (4,), (1,)),
                CampaignCell("mis-greedy", "all", (6,), (2,))]


def test_planted_wrong_verdict_is_a_failed_operation(tmp_path):
    workload = _TinySearch(0, 1, tmp_path)
    workload.prepare()
    rep = workload.rep()
    honest = {c.name: workloads.verdict_record(c.report) for c in rep.cells}

    verdicts = workloads.Verdicts(workload, honest)
    verdicts.add(rep)
    assert (verdicts.attempted, verdicts.failed) == (2, 0)

    planted = json.loads(json.dumps(honest))
    name = rep.cells[1].name
    planted[name]["witnesses"][0][2] += 1  # claim one more bit
    verdicts = workloads.Verdicts(workload, planted)
    verdicts.add(rep)
    assert (verdicts.attempted, verdicts.failed) == (2, 1)
    assert verdicts.errors == [f"{name}: verdict differs from the reference"]


def test_raising_cell_is_a_failed_operation(tmp_path):
    workload = _TinySearch(0, 1, tmp_path)
    workload.prepare()
    good = workload.rep()
    broken = workloads.Rep(good.seconds, [
        good.cells[0],
        workloads.CellOutcome(good.cells[1].name, None, "ValueError: boom",
                              good.cells[1].seconds),
    ], None)
    verdicts = workloads.Verdicts(workload)
    verdicts.add(good)
    verdicts.add(broken)
    assert (verdicts.attempted, verdicts.failed) == (4, 1)


class _TinyExhaustive(workloads.Exhaustive):
    """The exhaustive workload's pooled path on one small cell."""

    def cells(self):
        # n=6: large enough that the parent's fixed per-run cost stays
        # well inside the tenth of the region coverage may miss.
        return [CampaignCell("build-degenerate", "degenerate2", (6,), (1,))]


@pytest.mark.parametrize("cls", [_TinySearch, _TinyExhaustive])
def test_traced_ledger_covers_the_region(cls, tmp_path):
    workload = cls(0, 1, tmp_path)
    workload.prepare()
    tracer = ledger.Tracer(tmp_path)
    undo = ledger.install(tracer)
    workload.wrap = lambda fn: tracer.span(ledger.PARENT_ROOT, fn)
    try:
        rep = workload.rep()
    finally:
        undo()
    metrics = ledger.ledger_metrics(tracer.snapshot(), tracer.drain_workers(),
                                    rep.seconds, 1, rep.kernel)
    assert metrics["core.advance_calls"] > 0
    assert metrics["protocols.output_calls"] > 0
    # The named layers claim all but a tenth of the region.
    assert abs(metrics["ledger.coverage"] - 1.0) < 0.1
    # Pool workers report through the spool; the serial path has none.
    assert (metrics["runtime.backends.busy_s"] > 0) == (cls is _TinyExhaustive)
    per_layer = {name for name, _ in ledger.PER_LAYER}
    setup = {"cli.import_s", "runtime.plan.build_s", "campaigns.store.open_s",
             "runtime.backends.start_s", "trace.wall_s", "trace.overhead"}
    assert set(metrics) == per_layer - setup
    # The undo restored every original.
    from repro.core.execution import ExecutionState
    assert not hasattr(ExecutionState.advance, "__wrapped__")


def _snapshot(self_s: dict) -> dict:
    return {"self_s": self_s, "calls": {}, "counts": {}, "items": [],
            "boards": []}


def test_coverage_leaves_out_unclaimed_time():
    """Time only the root spans hold lowers coverage by its share on the
    blocking path: the parent's in full, a worker's divided by jobs."""
    parent = _snapshot({ledger.PARENT_ROOT: 1.0, "core.advance": 1.0,
                        "runtime.backends.blocked": 2.0})
    workers = [_snapshot({"ledger.worker_other": 1.0, "core.advance": 1.0}),
               _snapshot({"ledger.worker_other": 1.0, "core.advance": 1.0})]
    metrics = ledger.ledger_metrics(parent, workers, 4.0, 2, None)
    assert metrics["runtime.backends.busy_s"] == 4.0
    assert metrics["runtime.backends.wait_s"] == 0.0
    # Claimed: 1 s parent layer + 2 s worker layers / 2 jobs.
    assert metrics["ledger.coverage"] == pytest.approx(0.5)


def test_traced_measure_refuses_other_start_methods(monkeypatch, tmp_path):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_start_method",
                        lambda *a, **k: "spawn")
    args = argparse.Namespace(
        workload="search", seed=0, seconds=1.0, trace=1, jobs=1, probes=0,
        workdir=str(tmp_path))
    with pytest.raises(SystemExit, match="fork"):
        child.measure(args)


def test_set_up_figures_average_probes_from_across_the_run():
    probes = [{"setup_s": float(i)} for i in range(bench_run.PROBES)]
    figures = bench_run.set_up_figures(probes, "setup_s")
    assert len(figures) == bench_run.PROBES // bench_run.PROBES_PER_FIGURE
    # Probes 0, 5 and 10 make the first figure.
    assert figures[0] == pytest.approx(5.0)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        ledger.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb"}


def test_refuses_more_jobs_than_cpus(capsys):
    assert bench_run.main(["--workload", "search", "--jobs", "4096"]) == 2
    assert "exceeds" in capsys.readouterr().err
