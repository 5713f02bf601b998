"""E16 — laptop-scale stress runs.

The reproduction bands promise "simple round-based simulation, runs on a
laptop"; this benchmark pins numbers to that: end-to-end wall times for
the flagship protocols at the largest sizes the test matrix uses, plus a
simulator-throughput figure.  Regressions here mean the library stopped
being interactive.
"""

from __future__ import annotations

import json
import math
import time

from repro.core import (
    SIMASYNC,
    SIMSYNC,
    SYNC,
    MinIdScheduler,
    RandomScheduler,
    count_executions,
    run,
)
from repro.analysis.checkers import default_checker
from repro.graphs import generators as gen
from repro.graphs.properties import canonical_bfs_forest, is_rooted_mis
from repro.protocols.bfs import SyncBfsProtocol
from repro.protocols.build import DegenerateBuildProtocol
from repro.protocols.mis import RootedMisProtocol
from repro.protocols.sketching import SketchSpanningForestProtocol
from repro.runtime.plan import ExecutionPlan


def test_build_n512(benchmark):
    g = gen.random_k_degenerate(512, 3, seed=1)
    result = benchmark.pedantic(
        run, args=(g, DegenerateBuildProtocol(3), SIMASYNC, MinIdScheduler()),
        rounds=1, iterations=1,
    )
    assert result.output == g


def test_sync_bfs_n256(benchmark):
    g = gen.random_connected_graph(256, 0.02, seed=2)
    result = benchmark.pedantic(
        run, args=(g, SyncBfsProtocol(), SYNC, RandomScheduler(0)),
        rounds=1, iterations=1,
    )
    assert result.output == canonical_bfs_forest(g)


def test_mis_n512(benchmark):
    g = gen.random_connected_graph(512, 0.01, seed=3)
    result = benchmark.pedantic(
        run, args=(g, RootedMisProtocol(7), SIMSYNC, RandomScheduler(1)),
        rounds=1, iterations=1,
    )
    assert is_rooted_mis(g, result.output, 7)


def test_sketch_forest_n48(benchmark):
    from repro.graphs.labeled_graph import LabeledGraph
    from repro.graphs.properties import connected_components

    g = gen.random_connected_graph(48, 0.08, seed=4)
    result = benchmark.pedantic(
        run,
        args=(g, SketchSpanningForestProtocol(shared_seed=5), SIMASYNC,
              MinIdScheduler()),
        rounds=1, iterations=1,
    )
    forest = LabeledGraph(g.n, result.output)
    assert connected_components(forest) == connected_components(g)


def test_scale_summary(benchmark, write_report, report_dir):
    rows = []
    cases = [
        ("BUILD k=3, n=512", lambda: run(
            gen.random_k_degenerate(512, 3, seed=1),
            DegenerateBuildProtocol(3), SIMASYNC, MinIdScheduler())),
        ("SYNC BFS, n=256", lambda: run(
            gen.random_connected_graph(256, 0.02, seed=2),
            SyncBfsProtocol(), SYNC, RandomScheduler(0))),
        ("MIS, n=512", lambda: run(
            gen.random_connected_graph(512, 0.01, seed=3),
            RootedMisProtocol(7), SIMSYNC, RandomScheduler(1))),
    ]
    for name, fn in cases:
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        assert result.success
        rows.append((name, dt, result.max_message_bits))
    benchmark.pedantic(cases[0][1], rounds=1, iterations=1)

    lines = ["Laptop-scale stress runs", ""]
    lines.append(f"{'case':<22} {'wall time':>10} {'max msg bits':>13}")
    for name, dt, bits in rows:
        lines.append(f"{name:<22} {dt:>9.2f}s {bits:>13}")
    write_report("scale_stress", "\n".join(lines))
    # Machine-readable twin of the table above: tools/bench_report.py
    # renders and staleness-checks it, so downstream tooling never
    # scrapes the fixed-width text.
    payload = {
        "bench": "scale_stress",
        "rows": [
            {"case": name, "seconds": round(dt, 4), "max_message_bits": bits}
            for name, dt, bits in rows
        ],
    }
    (report_dir / "scale_stress.json").write_text(
        json.dumps(payload, indent=2) + "\n")


#: The exhaustive-enumeration curve: sizes swept, and the size past
#: which the scalar engine is no longer interactive (the "cliff") —
#: mirrored by tools/bench_report.py's staleness markers; widen both
#: together.  The verified cells fold the quotient configuration DAG
#: (2^n configurations), so the curve runs well past the cliff.
CURVE_SIZES = (5, 6, 7, 8, 9, 10, 11, 12)
SCALAR_CLIFF = 7


def _verify_cell(graph, proto):
    """``(seconds, report)`` of one exhaustive stress cell — every
    schedule enumerated, decoded and checked, witnesses recorded —
    through the production ``ExecutionTask.execute()``."""
    [task] = ExecutionPlan.build(
        proto, [SIMASYNC], [graph], mode="stress",
        checker=default_checker("build-degenerate"),
        exhaustive_threshold=graph.n).tasks
    assert task.mode == "exhaustive"
    t0 = time.perf_counter()
    report = task.execute().report
    seconds = time.perf_counter() - t0
    assert report.ok and report.exhaustive_instances == 1
    return seconds, report


def test_scale_curve(report_dir):
    """Exhaustive verification scaling: what a verdict costs at each size.

    ``verify_seconds`` times one exhaustive stress cell, serial, and
    ``executions`` is that cell's ``report.executions`` — every one of
    the ``n!`` SIMASYNC schedules checked, by a fold over the quotient
    configuration DAG (:mod:`repro.runtime.quotient`).  The scalar
    ``count_executions`` walk (schedule tree sized without decoding or
    checking) is timed up to ``SCALAR_CLIFF`` and must agree with it.
    """
    rows = []
    for n in CURVE_SIZES:
        g = gen.cycle_graph(n)
        proto = DegenerateBuildProtocol(2)
        verify_seconds, report = _verify_cell(g, proto)
        assert report.executions == math.factorial(n)
        scalar_seconds = None
        if n <= SCALAR_CLIFF:
            t0 = time.perf_counter()
            scalar = count_executions(g, proto, SIMASYNC)
            scalar_seconds = round(time.perf_counter() - t0, 4)
            assert scalar == report.executions
        rows.append({
            "n": n,
            "executions": report.executions,
            "scalar_seconds": scalar_seconds,
            "verify_seconds": round(verify_seconds, 4),
        })
    payload = {
        "bench": "scale_curve",
        "fixture": "cycle / build-degenerate k=2 / SIMASYNC",
        "scalar_cliff": SCALAR_CLIFF,
        "rows": rows,
    }
    (report_dir / "scale_curve.json").write_text(
        json.dumps(payload, indent=2) + "\n")
