"""Regenerate Table 2 — the paper's classification of problems × models.

Every cell is *recomputed*, not transcribed:

* ``yes`` cells run the corresponding protocol (lifted along Lemma 4
  where needed) over a workload of graph instances under the adversary
  portfolio — exhaustively over all schedules for the smallest
  instances — and report measured correctness plus maximum message bits;
* ``no`` cells execute the paper's reduction on concrete inputs
  (transformer/scheme round-trip) and evaluate Lemma 3's counting
  inequality that the reduction feeds;
* ``open``/``yes*`` cells report the paper's status together with the
  empirical evidence this repo can add (e.g. deadlock measurements for
  BFS in ASYNC, bounded-degeneracy TRIANGLE runs for the ``yes*``
  cells).

``render_table2`` produces the ASCII table the benchmark prints next to
the paper's original for side-by-side comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graphs import generators as gen
from ..graphs.labeled_graph import LabeledGraph
from ..graphs.degeneracy import is_k_degenerate
from ..graphs.properties import (
    canonical_bfs_forest,
    has_triangle,
    is_even_odd_bipartite,
    is_rooted_mis,
)
from ..core.models import ALL_MODELS, ASYNC, SIMASYNC, SIMSYNC, SYNC, ModelSpec
from ..core.schedulers import default_portfolio
from ..core.simulator import run
from ..hierarchy.adapters import lift
from ..hierarchy.lattice import TABLE2_ROWS
from ..protocols.bfs import BipartiteBfsAsyncProtocol, EobBfsProtocol, SyncBfsProtocol
from ..protocols.build import DegenerateBuildProtocol
from ..protocols.mis import RootedMisProtocol
from ..protocols.naive import (
    NOT_EOB,
    NaiveEobBfsProtocol,
    NaiveMisProtocol,
    NaiveTriangleProtocol,
)
from ..protocols.triangle import DegenerateTriangleProtocol
from ..reductions.counting import (
    log2_all_graphs,
    log2_bipartite_fixed_parts,
    log2_even_odd_bipartite,
    min_message_bits_for_build,
)
from ..reductions.transformers import (
    EobBfsToBuildScheme,
    MisToBuildProtocol,
    TriangleToBuildProtocol,
)
from .verify import VerificationReport, verify_protocol

__all__ = ["EmpiricalCell", "Table2Result", "generate_table2", "render_table2"]

_K = 2  # degeneracy bound for the BUILD / TRIANGLE workloads


@dataclass
class EmpiricalCell:
    """One regenerated cell."""

    status: str
    ok: bool
    evidence: list[str] = field(default_factory=list)
    max_message_bits: int = 0


@dataclass
class Table2Result:
    """All regenerated cells plus the paper's claims for comparison."""

    cells: dict[tuple[str, str], EmpiricalCell]

    def cell(self, problem: str, model: ModelSpec | str) -> EmpiricalCell:
        name = model if isinstance(model, str) else model.name
        return self.cells[(problem, name)]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.cells.values())

    def matches_paper(self) -> bool:
        for row in TABLE2_ROWS:
            for model in ALL_MODELS:
                ours = self.cell(row.key, model).status
                theirs = row.cell(model).status
                if ours != theirs:
                    return False
        return True


def _sizes(quick: bool) -> tuple[list[int], int]:
    """(portfolio sizes, exhaustive threshold)."""
    return ([8, 12, 16] if quick else [8, 12, 16, 24, 32], 5)


def _verified_cell(report: VerificationReport, note: str) -> EmpiricalCell:
    status = "yes" if report.ok else "FAILED"
    return EmpiricalCell(
        status=status,
        ok=report.ok,
        evidence=[note, report.summary()],
        max_message_bits=report.max_message_bits,
    )


def _degenerate_instances(quick: bool, seed: int) -> list[LabeledGraph]:
    sizes, _ = _sizes(quick)
    out: list[LabeledGraph] = [gen.random_graph(4, 0.5, seed), gen.path_graph(5)]
    for i, n in enumerate(sizes):
        out.append(gen.random_k_degenerate(n, _K, seed=seed + i))
    return out


def _mis_instances(quick: bool, seed: int) -> list[LabeledGraph]:
    sizes, _ = _sizes(quick)
    out: list[LabeledGraph] = [gen.random_graph(5, 0.5, seed + 50)]
    for i, n in enumerate(sizes):
        out.append(gen.random_connected_graph(n, 0.3, seed=seed + i))
    return out


def _eob_instances(quick: bool, seed: int) -> list[LabeledGraph]:
    sizes, _ = _sizes(quick)
    out: list[LabeledGraph] = [gen.random_even_odd_bipartite(5, 0.6, seed)]
    for i, n in enumerate(sizes):
        out.append(gen.random_even_odd_bipartite(n, 0.35, seed=seed + i))
    # One invalid instance: the negative answer must also be exercised.
    out.append(LabeledGraph(6, [(1, 3), (2, 3), (4, 5), (5, 6)]))
    return out


def _bfs_instances(quick: bool, seed: int) -> list[LabeledGraph]:
    sizes, _ = _sizes(quick)
    out: list[LabeledGraph] = [gen.random_graph(5, 0.4, seed + 9)]
    for i, n in enumerate(sizes):
        out.append(gen.random_graph(n, 0.25, seed=seed + i))
    out.append(gen.petersen_graph())
    out.append(LabeledGraph(7, [(1, 2), (2, 3), (3, 1), (5, 6), (6, 7)]))
    return out


def _reduction_cell_triangle(seed: int) -> EmpiricalCell:
    """TRIANGLE ∉ SIMASYNC[o(n)] — execute Theorem 3 on real inputs."""
    evidence = []
    ok = True
    transformer = TriangleToBuildProtocol(lambda n: NaiveTriangleProtocol())
    for i, (a, b) in enumerate([(3, 3), (4, 4)]):
        g = gen.random_bipartite(a, b, 0.5, seed=seed + i)
        result = run(g, transformer, SIMASYNC, default_portfolio()[i % 4])
        good = result.success and result.output == g
        ok &= good
        evidence.append(
            f"Theorem 3 transformer rebuilt K({a},{b})-random bipartite graph: "
            f"{'ok' if good else 'FAILED'}"
        )
    n = 64
    need = min_message_bits_for_build(log2_bipartite_fixed_parts(n), n)
    evidence.append(
        f"Lemma 3: BUILD on fixed-part bipartite graphs (n={n}) needs "
        f">= {need:.1f} bits/message = Ω(n); any o(n) TRIANGLE protocol "
        f"would beat it via the transformer"
    )
    return EmpiricalCell("no", ok, evidence)


def _reduction_cell_mis(seed: int) -> EmpiricalCell:
    """MIS ∉ SIMASYNC[o(n)] — execute Theorem 6 on real inputs."""
    evidence = []
    ok = True
    transformer = MisToBuildProtocol(lambda n, root: NaiveMisProtocol(root))
    for i, n in enumerate([6, 7]):
        g = gen.random_graph(n, 0.5, seed=seed + 20 + i)
        result = run(g, transformer, SIMASYNC, default_portfolio()[i % 4])
        good = result.success and result.output == g
        ok &= good
        evidence.append(
            f"Theorem 6 transformer rebuilt a random graph on {n} nodes: "
            f"{'ok' if good else 'FAILED'}"
        )
    n = 64
    need = min_message_bits_for_build(log2_all_graphs(n), n)
    evidence.append(
        f"Lemma 3: BUILD on all graphs (n={n}) needs >= {need:.1f} "
        f"bits/message = Ω(n)"
    )
    return EmpiricalCell("no", ok, evidence)


def _reduction_cell_eob(seed: int, simasync: bool) -> EmpiricalCell:
    """EOB-BFS ∉ SIMSYNC[o(n)] (and a fortiori SIMASYNC) — Theorem 8."""
    evidence = []
    ok = True
    scheme = EobBfsToBuildScheme(lambda: NaiveEobBfsProtocol())
    for i, n in enumerate([7, 9]):
        base = _random_theorem8_base(n, seed + i)
        code = scheme.encode(base)
        good = scheme.decode(code, n) == base
        ok &= good
        evidence.append(
            f"Theorem 8 scheme round-tripped an EOB base on labels 2..{n}: "
            f"{'ok' if good else 'FAILED'}"
        )
    n = 64
    need = min_message_bits_for_build(log2_even_odd_bipartite(n), n)
    evidence.append(
        f"Lemma 3: BUILD on even-odd-bipartite graphs (n={n}) needs "
        f">= {need:.1f} bits/message = Ω(n)"
    )
    if simasync:
        evidence.append("SIMASYNC cell follows from the SIMSYNC 'no' by Lemma 4")
    return EmpiricalCell("no", ok, evidence)


def _random_theorem8_base(n: int, seed: int) -> LabeledGraph:
    """A random Theorem 8 base: odd ``n``, node 1 isolated, EOB on 2..n."""
    import random as _random

    rng = _random.Random(seed)
    edges = [
        (u, v)
        for u in range(2, n + 1)
        for v in range(u + 1, n + 1)
        if (u - v) % 2 == 1 and rng.random() < 0.5
    ]
    return LabeledGraph(n, edges)


def _open_cell_bfs(model: ModelSpec, seed: int) -> EmpiricalCell:
    """The BFS '?' cells, annotated with this repo's deadlock evidence."""
    evidence = [f"paper marks BFS in {model.name} as open"]
    if model == ASYNC:
        deadlocks = 0
        trials = 0
        proto = BipartiteBfsAsyncProtocol()
        for i in range(4):
            g = gen.random_connected_graph(9, 0.35, seed=seed + i)
            for sched in default_portfolio((0, 1)):
                trials += 1
                if not run(g, proto, ASYNC, sched).success:
                    deadlocks += 1
        evidence.append(
            f"Corollary 4 protocol on non-bipartite inputs: "
            f"{deadlocks}/{trials} runs deadlocked (Open Problem 3 evidence)"
        )
    return EmpiricalCell("open", True, evidence)


def generate_table2(quick: bool = True, seed: int = 0) -> Table2Result:
    """Recompute every cell of Table 2.  ``quick`` trims workload sizes
    (used by tests); the benchmark runs the full version."""
    _, exhaustive = _sizes(quick)
    scheds = default_portfolio((0, 1, 2))
    cells: dict[tuple[str, str], EmpiricalCell] = {}

    # --- BUILD on degeneracy-<=k graphs: yes in all four models -------
    build_instances = [
        g for g in _degenerate_instances(quick, seed) if is_k_degenerate(g, _K)
    ]
    build = DegenerateBuildProtocol(_K)
    for model in ALL_MODELS:
        report = verify_protocol(
            lift(build, model), model, build_instances,
            lambda g, out, r: out == g,
            schedulers=scheds, exhaustive_threshold=exhaustive,
        )
        cells[("BUILD k-degenerate", model.name)] = _verified_cell(
            report, f"Theorem 2 protocol (k={_K}) under {model.name}"
        )

    # --- rooted MIS ----------------------------------------------------
    cells[("rooted MIS", "SIMASYNC")] = _reduction_cell_mis(seed)
    for model in (SIMSYNC, ASYNC, SYNC):
        reports = []
        for g in _mis_instances(quick, seed):
            root = 1 + (seed % g.n)
            proto = lift(RootedMisProtocol(root), model)
            reports.append(
                verify_protocol(
                    proto, model, [g],
                    lambda gg, out, r, _root=root: is_rooted_mis(gg, out, _root),
                    schedulers=scheds, exhaustive_threshold=exhaustive,
                )
            )
        merged = _merge_reports(reports)
        cells[("rooted MIS", model.name)] = _verified_cell(
            merged, f"Theorem 5 greedy protocol under {model.name}"
        )

    # --- TRIANGLE --------------------------------------------------------
    cells[("TRIANGLE", "SIMASYNC")] = _reduction_cell_triangle(seed)
    tri_instances = [
        g for g in _degenerate_instances(quick, seed + 100) if is_k_degenerate(g, _K)
    ]
    tri = DegenerateTriangleProtocol(_K)
    for model in (SIMSYNC, ASYNC, SYNC):
        report = verify_protocol(
            lift(tri, model), model, tri_instances,
            lambda g, out, r: out == (1 if has_triangle(g) else 0),
            schedulers=scheds, exhaustive_threshold=exhaustive,
        )
        cell = _verified_cell(
            report,
            "paper claims the cell without a protocol; verified here on "
            f"degeneracy-<={_K} inputs via Theorem 2",
        )
        cell.status = "yes*" if report.ok else "FAILED"
        cells[("TRIANGLE", model.name)] = cell

    # --- EOB-BFS ---------------------------------------------------------
    cells[("EOB-BFS", "SIMASYNC")] = _reduction_cell_eob(seed, simasync=True)
    cells[("EOB-BFS", "SIMSYNC")] = _reduction_cell_eob(seed, simasync=False)

    def eob_checker(g, out, r):
        if not is_even_odd_bipartite(g):
            return out == NOT_EOB
        return out == canonical_bfs_forest(g)

    eob_instances = _eob_instances(quick, seed)
    for model in (ASYNC, SYNC):
        report = verify_protocol(
            lift(EobBfsProtocol(), model), model, eob_instances, eob_checker,
            schedulers=scheds, exhaustive_threshold=exhaustive,
        )
        cells[("EOB-BFS", model.name)] = _verified_cell(
            report, f"Theorem 7 layer-certificate protocol under {model.name}"
        )

    # --- BFS ---------------------------------------------------------------
    for model in (SIMASYNC, SIMSYNC, ASYNC):
        cells[("BFS", model.name)] = _open_cell_bfs(model, seed)
    report = verify_protocol(
        SyncBfsProtocol(), SYNC, _bfs_instances(quick, seed),
        lambda g, out, r: out == canonical_bfs_forest(g),
        schedulers=scheds, exhaustive_threshold=exhaustive,
    )
    cells[("BFS", "SYNC")] = _verified_cell(
        report, "Theorem 10 d0-corrected certificates under SYNC"
    )

    return Table2Result(cells)


def _merge_reports(reports: list[VerificationReport]) -> VerificationReport:
    merged = VerificationReport(reports[0].protocol_name, reports[0].model_name)
    for r in reports:
        merged.instances += r.instances
        merged.executions += r.executions
        merged.exhaustive_instances += r.exhaustive_instances
        merged.failures.extend(r.failures)
        merged.max_message_bits = max(merged.max_message_bits, r.max_message_bits)
        for n, b in r.max_bits_by_n.items():
            merged.max_bits_by_n[n] = max(merged.max_bits_by_n.get(n, 0), b)
    return merged


def render_table2(result: Table2Result) -> str:
    """ASCII rendering mirroring the paper's Table 2, with the paper's
    claims alongside the regenerated statuses."""
    headers = ["problem"] + [m.name for m in ALL_MODELS]
    lines = []
    widths = [24, 14, 14, 14, 14]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in TABLE2_ROWS:
        cols = [row.key.ljust(widths[0])]
        for i, model in enumerate(ALL_MODELS):
            ours = result.cell(row.key, model).status
            theirs = row.cell(model).status
            mark = ours if ours == theirs else f"{ours}(paper:{theirs})"
            cols.append(mark.ljust(widths[i + 1]))
        lines.append(" | ".join(cols))
    lines.append("")
    lines.append("paper Table 2 (for reference): yes cells use O(log n) bits, "
                 "no cells exclude every o(n)-bit protocol, ? is open")
    return "\n".join(lines)
