"""The experiment catalogue: every regenerable artefact, addressable.

DESIGN.md's per-experiment index (E1–E20) maps each of the paper's
tables, figures and quantitative claims to modules and benchmarks.  This
package makes the index *executable*: each experiment is a first-class
object with an identifier, a description of the paper artefact it
regenerates, and a ``run(quick=...)`` method returning an
:class:`ExperimentResult` (pass/fail verdict plus the rendered artefact
text).  The CLI exposes them as ``python -m repro experiment E5`` and
``python -m repro reproduce-all``.

The heavyweight timing measurements stay in ``benchmarks/``; the
registry favours fast, deterministic regeneration suitable for CI and
interactive use.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "ExperimentResult",
    "Experiment",
    "CATALOG",
    "get_experiment",
    "run_experiment",
    "run_all",
]


@dataclass
class ExperimentResult:
    """Outcome of one experiment regeneration."""

    experiment_id: str
    ok: bool
    artifact: str
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Experiment:
    """One entry of the DESIGN.md experiment index."""

    experiment_id: str
    title: str
    paper_artifact: str
    runner: Callable[[bool], ExperimentResult]

    def run(self, quick: bool = True) -> ExperimentResult:
        return self.runner(quick)


# ----------------------------------------------------------------------
# runners
# ----------------------------------------------------------------------

def _e1_table1(quick: bool) -> ExperimentResult:
    from ..core import ALL_MODELS, MaxIdScheduler, NodeView, Protocol, run
    from ..graphs.generators import path_graph

    class Probe(Protocol):
        name = "probe"

        def wants_to_activate(self, view: NodeView) -> bool:
            return len(view.board) >= view.node - 1

        def message(self, view: NodeView):
            return (view.node, len(view.board))

        def output(self, board, n):
            return tuple(board)

    g = path_graph(5)
    lines = ["E1 — Table 1 semantics probe", ""]
    ok = True
    for model in ALL_MODELS:
        r = run(g, Probe(), model, MaxIdScheduler())
        seen = [p[1] for p in r.board.view()]
        all0 = all(v == 0 for v in r.activation_round.values())
        lines.append(f"{model.name:<9} active@0={all0!s:<6} board-sizes-seen={seen}")
        if model.name == "SIMASYNC":
            ok &= all0 and seen == [0] * 5
        if model.name == "SIMSYNC":
            ok &= all0 and seen == [0, 1, 2, 3, 4]
        if model.name in ("ASYNC", "SYNC"):
            ok &= not all0
    return ExperimentResult("E1", ok, "\n".join(lines))


def _e2_table2(quick: bool) -> ExperimentResult:
    from ..analysis.table2 import generate_table2, render_table2

    result = generate_table2(quick=quick, seed=0)
    ok = result.all_ok and result.matches_paper()
    return ExperimentResult(
        "E2", ok, render_table2(result), {"matches_paper": result.matches_paper()}
    )


def _e3_figure1(quick: bool) -> ExperimentResult:
    from ..analysis.figures import render_figure1
    from ..graphs.generators import random_bipartite
    from ..reductions.gadgets import figure1_example, triangle_gadget_property

    g, _ = figure1_example()
    ok = all(
        triangle_gadget_property(g, s, t)
        for s in g.nodes() for t in range(s + 1, g.n + 1)
    )
    if not quick:
        for seed in range(5):
            b = random_bipartite(4, 4, 0.5, seed=seed)
            ok &= all(
                triangle_gadget_property(b, s, t)
                for s in b.nodes() for t in range(s + 1, b.n + 1)
            )
    return ExperimentResult("E3", ok, render_figure1())


def _e4_figure2(quick: bool) -> ExperimentResult:
    from ..analysis.figures import render_figure2
    from ..reductions.gadgets import eob_gadget_property, figure2_example

    base, _ = figure2_example()
    ok = all(eob_gadget_property(base, i) for i in (3, 5, 7))
    return ExperimentResult("E4", ok, render_figure2())


def _e5_lemma1(quick: bool) -> ExperimentResult:
    from ..analysis.scaling import fit_log
    from ..core import SIMASYNC, MinIdScheduler, run
    from ..graphs.generators import random_k_degenerate
    from ..protocols.build import DegenerateBuildProtocol

    sizes = (16, 32, 64) if quick else (16, 32, 64, 128, 256)
    ks = (1, 2, 3) if quick else (1, 2, 3, 4, 5)
    lines = ["E5 — Lemma 1 message sizes", ""]
    ok = True
    for k in ks:
        bits = []
        for n in sizes:
            g = random_k_degenerate(n, k, seed=n + k)
            r = run(g, DegenerateBuildProtocol(k), SIMASYNC, MinIdScheduler())
            ok &= r.output == g
            bits.append(r.max_message_bits)
        fit = fit_log(sizes, bits)
        ok &= fit.r_squared > 0.8
        lines.append(f"k={k}: bits={bits}  {fit}")
    return ExperimentResult("E5", ok, "\n".join(lines))


def _e6_build(quick: bool) -> ExperimentResult:
    from ..analysis.verify import verify_protocol
    from ..core import SIMASYNC
    from ..graphs.generators import random_k_degenerate
    from ..protocols.build import DegenerateBuildProtocol

    sizes = (4, 9, 14) if quick else (4, 9, 14, 24, 40)
    instances = [random_k_degenerate(n, 2, seed=n) for n in sizes]
    report = verify_protocol(
        DegenerateBuildProtocol(2), SIMASYNC, instances, lambda g, out, r: out == g
    )
    return ExperimentResult("E6", report.ok, report.summary())


def _e7_lemma3(quick: bool) -> ExperimentResult:
    from ..reductions.counting import (
        build_feasible,
        log2_all_graphs,
        log2_even_odd_bipartite,
        log2_labeled_trees,
        min_message_bits_for_build,
    )

    sizes = (16, 64, 256) if quick else (16, 64, 256, 1024, 4096)
    lines = ["E7 — Lemma 3 minimum bits/message for BUILD", ""]
    ok = True
    for n in sizes:
        logn = max(1, n.bit_length() - 1)
        row = (
            f"n={n:<6} all={min_message_bits_for_build(log2_all_graphs(n), n):>8.1f}"
            f"  eob={min_message_bits_for_build(log2_even_odd_bipartite(n), n):>8.1f}"
            f"  trees={min_message_bits_for_build(log2_labeled_trees(n), n):>6.1f}"
        )
        lines.append(row)
        if n >= 64:
            ok &= not build_feasible(log2_all_graphs(n), n, logn)
            ok &= build_feasible(log2_labeled_trees(n), n, 4 * logn)
    return ExperimentResult("E7", ok, "\n".join(lines))


def _e8_reductions(quick: bool) -> ExperimentResult:
    from ..core import SIMASYNC, RandomScheduler, run
    from ..graphs.generators import random_bipartite, random_graph
    from ..graphs.labeled_graph import LabeledGraph
    from ..protocols.naive import (
        NaiveEobBfsProtocol,
        NaiveMisProtocol,
        NaiveTriangleProtocol,
    )
    from ..reductions.transformers import (
        EobBfsToBuildScheme,
        MisToBuildProtocol,
        TriangleToBuildProtocol,
    )
    import random as _random

    lines = ["E8 — theorem compilers, round-tripped", ""]
    ok = True
    b = random_bipartite(3, 4, 0.5, seed=1)
    tri = TriangleToBuildProtocol(lambda n: NaiveTriangleProtocol())
    got = run(b, tri, SIMASYNC, RandomScheduler(0)).output == b
    ok &= got
    lines.append(f"Theorem 3 (TRIANGLE=>BUILD): {'ok' if got else 'FAILED'}")
    g = random_graph(7, 0.5, seed=2)
    mis = MisToBuildProtocol(lambda n, root: NaiveMisProtocol(root))
    got = run(g, mis, SIMASYNC, RandomScheduler(0)).output == g
    ok &= got
    lines.append(f"Theorem 6 (MIS=>BUILD): {'ok' if got else 'FAILED'}")
    rng = _random.Random(3)
    base = LabeledGraph(9, [
        (u, v) for u in range(2, 10) for v in range(u + 1, 10)
        if (u - v) % 2 == 1 and rng.random() < 0.5
    ])
    scheme = EobBfsToBuildScheme(lambda: NaiveEobBfsProtocol())
    got = scheme.decode(scheme.encode(base), 9) == base
    ok &= got
    lines.append(f"Theorem 8 (EOB-BFS=>code): {'ok' if got else 'FAILED'}")
    return ExperimentResult("E8", ok, "\n".join(lines))


def _e9_protocols(quick: bool) -> ExperimentResult:
    from ..analysis.verify import verify_protocol
    from ..core import ASYNC, SIMSYNC, SYNC
    from ..graphs import generators as gen
    from ..graphs.properties import (
        canonical_bfs_forest,
        is_even_odd_bipartite,
        is_rooted_mis,
        is_two_cliques,
    )
    from ..protocols.bfs import EobBfsProtocol, SyncBfsProtocol
    from ..protocols.mis import RootedMisProtocol
    from ..protocols.naive import NOT_EOB
    from ..protocols.two_cliques import (
        NOT_TWO_CLIQUES,
        TWO_CLIQUES,
        TwoCliquesProtocol,
    )

    lines = ["E9 — positive protocols", ""]
    ok = True
    checks = [
        (
            RootedMisProtocol(1), SIMSYNC,
            [gen.random_graph(5, 0.5, seed=s) for s in range(2)],
            lambda g, out, r: is_rooted_mis(g, out, 1),
        ),
        (
            TwoCliquesProtocol(), SIMSYNC,
            [gen.two_cliques(3), gen.connected_two_cliques_like(4, seed=0)],
            lambda g, out, r: out
            == (TWO_CLIQUES if is_two_cliques(g) else NOT_TWO_CLIQUES),
        ),
        (
            EobBfsProtocol(), ASYNC,
            [gen.random_even_odd_bipartite(9, 0.4, seed=s) for s in range(2)],
            lambda g, out, r: (
                out == canonical_bfs_forest(g)
                if is_even_odd_bipartite(g) else out == NOT_EOB
            ),
        ),
        (
            SyncBfsProtocol(), SYNC,
            [gen.random_graph(9, 0.3, seed=s) for s in range(2)],
            lambda g, out, r: out == canonical_bfs_forest(g),
        ),
    ]
    for proto, model, instances, checker in checks:
        report = verify_protocol(proto, model, instances, checker)
        ok &= report.ok
        lines.append(report.summary())
    return ExperimentResult("E9", ok, "\n".join(lines))


def _e10_hierarchy(quick: bool) -> ExperimentResult:
    from ..core import ALL_MODELS, RandomScheduler, run
    from ..core.models import MODELS_BY_NAME, at_most_as_strong
    from ..graphs import generators as gen
    from ..graphs.properties import canonical_bfs_forest, is_rooted_mis
    from ..hierarchy.adapters import lift
    from ..protocols.bfs import EobBfsProtocol
    from ..protocols.build import DegenerateBuildProtocol
    from ..protocols.mis import RootedMisProtocol

    cases = [
        (DegenerateBuildProtocol(2), gen.random_k_degenerate(9, 2, seed=1),
         lambda g, out: out == g),
        (RootedMisProtocol(2), gen.random_connected_graph(9, 0.3, seed=2),
         lambda g, out: is_rooted_mis(g, out, 2)),
        (EobBfsProtocol(), gen.random_even_odd_bipartite(9, 0.4, seed=3),
         lambda g, out: out == canonical_bfs_forest(g)),
    ]
    lines = ["E10 — Lemma 4 lattice lifts", ""]
    ok = True
    for proto, graph, check in cases:
        source = MODELS_BY_NAME[proto.designed_for]
        cells = []
        for model in ALL_MODELS:
            if not at_most_as_strong(source, model):
                cells.append("-")
                continue
            r = run(graph, lift(proto, model), model, RandomScheduler(5))
            good = r.success and check(graph, r.output)
            ok &= good
            cells.append("ok" if good else "FAIL")
        lines.append(f"{proto.name:<28} " + " ".join(f"{c:<5}" for c in cells))
    return ExperimentResult("E10", ok, "\n".join(lines))


def _e11_open_problems(quick: bool) -> ExperimentResult:
    from ..core import ASYNC, SIMASYNC, RandomScheduler, run
    from ..graphs import generators as gen
    from ..graphs.properties import canonical_bfs_forest, is_bipartite
    from ..protocols.bfs import BipartiteBfsAsyncProtocol
    from ..protocols.randomized import RandomizedTwoCliquesProtocol
    from ..protocols.two_cliques import NOT_TWO_CLIQUES, TWO_CLIQUES

    trials = 8 if quick else 30
    deadlocks = wrong = 0
    for seed in range(trials):
        g = gen.random_connected_graph(9, 0.3, seed=seed)
        r = run(g, BipartiteBfsAsyncProtocol(), ASYNC, RandomScheduler(seed))
        if r.corrupted:
            deadlocks += 1
        elif r.output != canonical_bfs_forest(g):
            wrong += 1
    rnd_ok = True
    yes, no = gen.two_cliques(6), gen.connected_two_cliques_like(6, seed=1)
    for seed in range(5):
        p = RandomizedTwoCliquesProtocol(shared_seed=seed)
        rnd_ok &= run(yes, p, SIMASYNC, RandomScheduler(seed)).output == TWO_CLIQUES
        rnd_ok &= run(no, p, SIMASYNC, RandomScheduler(seed)).output == NOT_TWO_CLIQUES
    ok = wrong == 0 and rnd_ok
    lines = [
        "E11 — open problems, measured",
        "",
        f"Corollary 4 off-promise: {deadlocks}/{trials} deadlocks, {wrong} wrong outputs",
        f"randomized 2-CLIQUES: {'0 errors over 10 decisions' if rnd_ok else 'ERRORS'}",
    ]
    return ExperimentResult("E11", ok, "\n".join(lines))


def _e12_protocol_search(quick: bool) -> ExperimentResult:
    from ..graphs.generators import all_labeled_graphs
    from ..graphs.properties import has_triangle
    from ..reductions.protocol_search import search_simasync_decision

    lines = ["E12 — exhaustive protocol-space search", ""]
    graphs3 = list(all_labeled_graphs(3))
    r1 = search_simasync_decision(graphs3, has_triangle, 1)
    r2 = search_simasync_decision(graphs3, has_triangle, 2)
    ok = r1.status == "unsolvable" and r2.status == "solvable"
    lines.append(f"TRIANGLE n=3: alphabet 1 -> {r1.status}, alphabet 2 -> {r2.status}")
    if not quick:
        graphs4 = list(all_labeled_graphs(4))
        r3 = search_simasync_decision(graphs4, has_triangle, 2, node_budget=5_000_000)
        r4 = search_simasync_decision(graphs4, has_triangle, 3, node_budget=20_000_000)
        ok &= r3.status == "unsolvable" and r4.status == "solvable"
        lines.append(
            f"TRIANGLE n=4: alphabet 2 -> {r3.status}, alphabet 3 -> {r4.status}"
        )
    return ExperimentResult("E12", ok, "\n".join(lines))


def _e13_connectivity(quick: bool) -> ExperimentResult:
    from ..core import SYNC, RandomScheduler, run
    from ..graphs import generators as gen
    from ..graphs.properties import is_connected
    from ..protocols.connectivity import ConnectivityProtocol

    trials = 6 if quick else 20
    ok = True
    for seed in range(trials):
        g = gen.random_graph(10, 0.22, seed=seed)
        r = run(g, ConnectivityProtocol(), SYNC, RandomScheduler(seed))
        ok &= r.success and r.output == (1 if is_connected(g) else 0)
    return ExperimentResult(
        "E13", ok, f"E13 — CONNECTIVITY in SYNC: {trials}/{trials} correct"
        if ok else "E13 — FAILURES"
    )


def _e14_sensitivity(quick: bool) -> ExperimentResult:
    from ..analysis.sensitivity import analyze
    from ..core import SIMASYNC, SIMSYNC
    from ..graphs import generators as gen
    from ..protocols.build import DegenerateBuildProtocol
    from ..protocols.mis import RootedMisProtocol

    build = analyze(gen.random_k_degenerate(5, 2, seed=1),
                    DegenerateBuildProtocol(2), SIMASYNC)
    mis = analyze(gen.path_graph(5), RootedMisProtocol(1), SIMSYNC)
    ok = build.output_invariant and mis.distinct_outputs > 1
    return ExperimentResult(
        "E14", ok, "\n".join(["E14 — adversary sensitivity", "",
                              build.summary(), mis.summary()])
    )


def _e15_sketching(quick: bool) -> ExperimentResult:
    from ..core import SIMASYNC, RandomScheduler, run
    from ..graphs import generators as gen
    from ..graphs.labeled_graph import LabeledGraph
    from ..graphs.properties import connected_components
    from ..protocols.sketching import SketchSpanningForestProtocol

    trials = 6 if quick else 25
    good = 0
    bits = 0
    for seed in range(trials):
        g = gen.random_graph(11, 0.25, seed=seed)
        r = run(g, SketchSpanningForestProtocol(shared_seed=seed * 13 + 1),
                SIMASYNC, RandomScheduler(seed))
        forest = LabeledGraph(g.n, r.output)
        good += connected_components(forest) == connected_components(g)
        bits = max(bits, r.max_message_bits)
    ok = good == trials
    return ExperimentResult(
        "E15", ok,
        f"E15 — AGM sketching: spanning forest exact on {good}/{trials} "
        f"graphs; max message {bits} bits (polylog)",
    )


def _e16_scale(quick: bool) -> ExperimentResult:
    import time

    from ..core import SIMASYNC, MinIdScheduler, run
    from ..graphs.generators import random_k_degenerate
    from ..protocols.build import DegenerateBuildProtocol

    n = 256 if quick else 512
    g = random_k_degenerate(n, 3, seed=1)
    t0 = time.perf_counter()
    r = run(g, DegenerateBuildProtocol(3), SIMASYNC, MinIdScheduler())
    dt = time.perf_counter() - t0
    # The time gates the verdict but stays out of the summary, so the
    # summary is the same on every run and machine.
    ok = r.output == g and dt < 30.0
    return ExperimentResult(
        "E16", ok,
        f"E16 — scale: BUILD k=3 at n={n} within 30s, "
        f"max message {r.max_message_bits} bits",
    )


def _e17_cost_attribution(quick: bool) -> ExperimentResult:
    from ..analysis.message_stats import cost_by_degree
    from ..core import SIMASYNC, MinIdScheduler, run
    from ..graphs.generators import random_k_degenerate
    from ..protocols.build import DegenerateBuildProtocol

    g = random_k_degenerate(64 if quick else 128, 3, seed=7)
    r = run(g, DegenerateBuildProtocol(3), SIMASYNC, MinIdScheduler())
    by_deg = cost_by_degree(r, g)
    degs = sorted(by_deg)
    ok = by_deg[degs[-1]].mean_bits >= by_deg[degs[0]].mean_bits
    lines = ["E17 — cost attribution (Theorem 2, bits by degree)", ""]
    for d in degs:
        s = by_deg[d]
        lines.append(f"degree {d}: {s.count} nodes, mean {s.mean_bits:.1f} bits")
    return ExperimentResult("E17", ok, "\n".join(lines))


def _e18_parallel(quick: bool) -> ExperimentResult:
    from ..analysis.checkers import BuildEqualsInput
    from ..core import SIMASYNC
    from ..graphs.generators import random_k_degenerate
    from ..protocols.build import DegenerateBuildProtocol
    from ..runtime import ExecutionPlan, ProcessPoolBackend, SerialBackend

    instances = [random_k_degenerate(n, 2, seed=n) for n in (8, 12)]
    plan = ExecutionPlan.build(
        DegenerateBuildProtocol(2), SIMASYNC, instances,
        mode="verify", checker=BuildEqualsInput(),
    )
    serial = plan.verification_report(backend=SerialBackend())
    parallel = plan.verification_report(backend=ProcessPoolBackend(jobs=2))
    ok = (
        serial.ok and parallel.ok
        and serial.executions == parallel.executions
        and serial.max_bits_by_n == parallel.max_bits_by_n
    )
    return ExperimentResult(
        "E18", ok,
        "E18 — parallel sweep equivalence: serial and process-pool backends "
        f"agree on {serial.executions} executions of a {len(plan)}-task plan",
    )


def _e19_adversary_engine(quick: bool) -> ExperimentResult:
    from ..adversaries import (
        BeamSearchAdversary,
        BranchAndBoundAdversary,
        DeadlockAdversary,
        GreedyBitsAdversary,
    )
    from ..core import ASYNC, all_executions
    from ..graphs import generators as gen
    from ..graphs.labeled_graph import LabeledGraph
    from ..protocols.bfs import BipartiteBfsAsyncProtocol, EobBfsProtocol

    n = 5 if quick else 6
    g = gen.random_even_odd_bipartite(n, 0.5, seed=1)
    truth_bits = 0
    truth_deadlock = False
    for r in all_executions(g, EobBfsProtocol(), ASYNC):
        truth_bits = max(truth_bits, r.max_message_bits)
        truth_deadlock |= r.corrupted
    lines = ["E19 — adversary engine: search vs exhaustive ground truth", ""]
    ok = not truth_deadlock
    strategies = [
        GreedyBitsAdversary(restarts=2),
        BeamSearchAdversary(width=8),
        BranchAndBoundAdversary(),
    ]
    for strategy in strategies:
        witness = strategy.search(g, EobBfsProtocol(), ASYNC)
        agree = (not witness.deadlock) and witness.bits == truth_bits
        ok &= agree
        lines.append(
            f"{strategy.name:<18} n={n}: {witness.bits} bits "
            f"(exhaustive {truth_bits}) via {witness.schedule} "
            f"[{witness.explored} steps] {'OK' if agree else 'MISMATCH'}"
        )
    broken = LabeledGraph(5, [(1, 2), (1, 3), (2, 3), (4, 5)])
    seeker = DeadlockAdversary()
    found = seeker.search(broken, BipartiteBfsAsyncProtocol(), ASYNC)
    clean = seeker.search(g, EobBfsProtocol(), ASYNC)
    ok &= found.deadlock and not clean.deadlock
    lines.append(
        f"{seeker.name:<18} finds the disconnected-instance deadlock "
        f"({found.schedule}) and none on the connected one: "
        f"{'OK' if found.deadlock and not clean.deadlock else 'MISMATCH'}"
    )
    return ExperimentResult("E19", ok, "\n".join(lines))


def _e20_campaign(quick: bool) -> ExperimentResult:
    import tempfile
    from pathlib import Path

    from ..campaigns import Campaign, ResultStore, quick_campaign

    spec = quick_campaign("E20")
    lines = ["E20 — campaign subsystem: resumable store, pure cache re-run", ""]
    with tempfile.TemporaryDirectory() as tmp:
        with ResultStore(Path(tmp) / "e20.db") as store:
            first = Campaign(spec).run(store)
            second = Campaign(spec).run(store)
            def rows_without_generation(generation: int) -> list[tuple]:
                return [
                    row[:1] + row[2:]
                    for row in store.trajectory_rows(spec.name, generation)
                ]

            gen1 = rows_without_generation(1)
            gen2 = rows_without_generation(2)
        deadlock_seen = any(w.deadlock for w in first.report.witnesses)
        ok = (
            first.report.ok
            and first.executed == first.tasks
            and second.executed == 0
            and second.hits == second.tasks
            and second.report == first.report
            and gen1 == gen2
            and len(gen1) > 0
            and deadlock_seen
        )
        lines.append(first.summary())
        lines.append(second.summary())
        lines.append(
            f"re-run is a pure cache read: {second.executed == 0}; "
            f"reports field-identical: {second.report == first.report}; "
            f"trajectory generations identical: {gen1 == gen2} "
            f"({len(gen1)} extremal records); "
            f"Corollary 4 deadlock witness recorded: {deadlock_seen}"
        )
    return ExperimentResult("E20", ok, "\n".join(lines))


CATALOG: tuple[Experiment, ...] = (
    Experiment("E1", "Table 1 — model semantics", "Table 1", _e1_table1),
    Experiment("E2", "Table 2 — classification", "Table 2", _e2_table2),
    Experiment("E3", "Figure 1 — triangle gadget", "Figure 1", _e3_figure1),
    Experiment("E4", "Figure 2 — EOB-BFS gadget", "Figure 2", _e4_figure2),
    Experiment("E5", "Lemma 1 — message sizes", "Lemma 1", _e5_lemma1),
    Experiment("E6", "Theorem 2 — BUILD", "Theorem 2 / Algorithm 1", _e6_build),
    Experiment("E7", "Lemma 3 — counting bound", "Lemma 3", _e7_lemma3),
    Experiment("E8", "Theorems 3/6/8 — reductions", "Theorems 3, 6, 8", _e8_reductions),
    Experiment("E9", "positive protocols", "Theorems 5, 7, 10; §5.1", _e9_protocols),
    Experiment("E10", "Lemma 4 — hierarchy lifts", "Lemma 4 / Theorem 4", _e10_hierarchy),
    Experiment("E11", "open problems, measured", "Open Problems 1-4", _e11_open_problems),
    Experiment("E12", "protocol-space search", "extension (Thm 3 companion)", _e12_protocol_search),
    Experiment("E13", "connectivity corollaries", "Section 6 / Open Problem 2", _e13_connectivity),
    Experiment("E14", "adversary sensitivity", "Section 2 adversary", _e14_sensitivity),
    Experiment("E15", "graph sketching", "extension (Open Problems 1/2/4)", _e15_sketching),
    Experiment("E16", "laptop-scale stress", "engineering", _e16_scale),
    Experiment("E17", "cost attribution", "ablation", _e17_cost_attribution),
    Experiment("E18", "parallel sweeps", "engineering", _e18_parallel),
    Experiment("E19", "adversary engine", "Section 2 adversary / engineering",
               _e19_adversary_engine),
    Experiment("E20", "campaign subsystem", "engineering / Corollary 4",
               _e20_campaign),
)

_BY_ID = {e.experiment_id: e for e in CATALOG}


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by identifier (e.g. ``"E5"``)."""
    key = experiment_id.upper()
    if key not in _BY_ID:
        known = ", ".join(sorted(_BY_ID))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    return _BY_ID[key]


def run_experiment(experiment_id: str, quick: bool = True) -> ExperimentResult:
    """Regenerate one experiment."""
    return get_experiment(experiment_id).run(quick)


def _run_spec(spec: tuple[str, bool]) -> ExperimentResult:
    """Worker: regenerate one experiment (top-level for pickling)."""
    experiment_id, quick = spec
    return get_experiment(experiment_id).run(quick)


def run_all(
    quick: bool = True,
    jobs: Optional[int] = None,
    experiment_ids: Optional[Sequence[str]] = None,
) -> list[ExperimentResult]:
    """Regenerate the index (all of it, or ``experiment_ids``), in order.

    ``jobs`` fans experiments across worker processes through the
    execution runtime's backends; results always come back in catalogue
    order regardless of which worker finishes first.  Experiments are
    coarse, uneven tasks, so the process backend shards one per future.
    """
    from ..runtime.backends import resolve_backend

    ids = (
        [e.experiment_id for e in CATALOG]
        if experiment_ids is None
        else [get_experiment(i).experiment_id for i in experiment_ids]
    )
    backend = resolve_backend(jobs, chunk_size=1)
    return list(backend.map(_run_spec, [(i, quick) for i in ids]))
