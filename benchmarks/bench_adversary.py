#!/usr/bin/env python
"""Adversary search vs. exhaustive ground truth at small n.

For every fixture small enough to enumerate exhaustively, measures

* **agreement** — does each search strategy's worst witness reach the
  exhaustive maximum (bits), and does the deadlock seeker find a
  deadlock exactly when one exists?
* **time** — wall clock of the search vs. the exhaustive sweep it
  replaces, plus the number of write events each explored.
* **transposition sharing** — the same strategies run as one portfolio
  through a shared :class:`~repro.adversaries.TranspositionTable`
  (branch-and-bound first, so its exact completion frontiers are there
  for the others to consume), timed against the table-off portfolio,
  with the table's hit rate; the table-on witnesses must agree with the
  table-off ones strategy for strategy.
* **fault matrix** — the same search-vs-enumeration agreement over the
  joint fault × schedule space: each fault budget multiplies the
  exhaustive space (the ``schedules`` column shows by how much), and
  every strategy is gated against the faulted ground truth exactly like
  the reliable rows above.

The summary lands in ``reports/adversary_search.txt``;
``benchmarks/bench_regression.py`` records the headline
``adversary_search_n6`` / ``adversary_table_n6`` numbers into
``BENCH_perf.json`` so the search-vs-enumeration and table-on
trajectories are tracked across PRs.

Usage::

    PYTHONPATH=src python benchmarks/bench_adversary.py [--reps N]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.adversaries import (  # noqa: E402
    BeamSearchAdversary,
    BranchAndBoundAdversary,
    DeadlockAdversary,
    GreedyBitsAdversary,
    SearchContext,
    TranspositionTable,
    witness_rank,
)
from repro.core import ASYNC, SIMASYNC, SIMSYNC, all_executions  # noqa: E402
from repro.graphs import generators as gen  # noqa: E402
from repro.graphs.labeled_graph import LabeledGraph  # noqa: E402
from repro.protocols.bfs import (  # noqa: E402
    BipartiteBfsAsyncProtocol,
    EobBfsProtocol,
)
from repro.protocols.build import DegenerateBuildProtocol  # noqa: E402

REPORT_PATH = REPO_ROOT / "reports" / "adversary_search.txt"

FIXTURES = [
    ("build-simasync-n6", gen.random_k_degenerate(6, 2, seed=0),
     lambda: DegenerateBuildProtocol(2), SIMASYNC),
    ("build-simsync-n6", gen.random_k_degenerate(6, 2, seed=0),
     lambda: DegenerateBuildProtocol(2), SIMSYNC),
    ("eob-bfs-async-n6", gen.random_even_odd_bipartite(6, 0.5, seed=1),
     lambda: EobBfsProtocol(), ASYNC),
    ("bipartite-deadlock-n5",
     LabeledGraph(5, [(1, 2), (1, 3), (2, 3), (4, 5)]),
     lambda: BipartiteBfsAsyncProtocol(), ASYNC),
]

STRATEGIES = [
    lambda: GreedyBitsAdversary(restarts=2),
    lambda: BeamSearchAdversary(width=8),
    lambda: BranchAndBoundAdversary(),
    lambda: DeadlockAdversary(),
]

#: Sharing order for the transposition section: branch-and-bound first,
#: so its exact completion frontiers are in the table before the
#: strategies that can consume them run.
SHARED_ORDER = [
    lambda: BranchAndBoundAdversary(),
    lambda: DeadlockAdversary(),
    lambda: GreedyBitsAdversary(restarts=2),
    lambda: BeamSearchAdversary(width=8),
]


def _run_portfolio(graph, make_proto, model, shared: bool):
    """One portfolio pass; returns (witnesses by strategy, context)."""
    context = SearchContext(table=TranspositionTable()) if shared else None
    witnesses = {}
    for make_strategy in SHARED_ORDER:
        strategy = make_strategy()
        witnesses[strategy.name] = strategy.search(
            graph, make_proto(), model, context=context)
    return witnesses, context


def transposition_section(fixtures, reps: int) -> tuple[list[str], bool]:
    """Table-on vs table-off portfolio timings + hit rate + agreement."""
    lines = ["shared transposition table: portfolio off vs on "
             "(branch-and-bound seeds, the rest consume)", ""]
    header = (f"{'fixture':<24} {'off sec':>9} {'on sec':>9} {'ratio':>6} "
              f"{'hit rate':>9} {'entries':>8} agree")
    lines.append(header)
    print(header)
    all_agree = True
    for tag, graph, make_proto, model in fixtures:
        t_off, (off, _) = _median_time(
            lambda: _run_portfolio(graph, make_proto, model, shared=False),
            reps)
        t_on, (on, context) = _median_time(
            lambda: _run_portfolio(graph, make_proto, model, shared=True),
            reps)
        table = context.table
        # Branch-and-bound is exact, so sharing must reproduce its
        # witness field for field and the deadlock verdict; the
        # heuristics may only *improve* (consuming exact completions
        # can lift a descent to the true optimum), never degrade.
        agree = (
            on["branch-and-bound"].schedule == off["branch-and-bound"].schedule
            and on["deadlock-dfs"].deadlock == off["deadlock-dfs"].deadlock
            and all(witness_rank(on[name]) >= witness_rank(off[name])
                    for name in off)
        )
        all_agree &= agree
        row = (f"{tag:<24} {t_off:>9.4f} {t_on:>9.4f} "
               f"{t_off / t_on:>5.1f}x {table.hit_rate:>9.2f} "
               f"{len(table):>8} {'yes' if agree else 'NO'}")
        print(row)
        lines.append(row)
    lines.append("")
    lines.append(
        "(ratios > 1 are the completion-value reuse win; hit-poor cells "
        "pay the bookkeeping, which is why sharing is an opt-in knob)"
    )
    return lines, all_agree


#: Fault-matrix fixtures stay at n <= 5: each budget multiplies the
#: exhaustive space, and the gate needs the full enumeration as truth.
FAULT_FIXTURES = [
    ("build-simasync-n5", gen.random_k_degenerate(5, 2, seed=0),
     lambda: DegenerateBuildProtocol(2), SIMASYNC),
    ("eob-bfs-async-n4", gen.random_even_odd_bipartite(4, 0.5, seed=1),
     lambda: EobBfsProtocol(), ASYNC),
]

FAULT_BUDGETS = ["crash:1", "loss:1", "dup:1", "crash:1,loss:1"]


def fault_matrix_section(reps: int) -> tuple[list[str], bool]:
    """Search vs exhaustive agreement over the fault × schedule space."""
    lines = ["fault matrix: search vs exhaustive over the joint "
             "fault x schedule space", ""]
    header = (f"{'fixture':<20} {'faults':<14} {'strategy':<18} {'bits':>5} "
              f"{'truth':>5} {'dead':>5} {'seconds':>9} {'exh sec':>9} agree")
    lines.append(header)
    print(header)
    all_agree = True
    for tag, graph, make_proto, model in FAULT_FIXTURES:
        for faults in FAULT_BUDGETS:
            def enumerate_all():
                bits, dead, count = 0, False, 0
                for r in all_executions(graph, make_proto(), model,
                                        faults=faults):
                    bits = max(bits, r.max_message_bits)
                    dead |= r.corrupted
                    count += 1
                return bits, dead, count

            t_exh, (truth_bits, truth_dead, schedules) = _median_time(
                enumerate_all, reps)
            for make_strategy in STRATEGIES:
                strategy = make_strategy()
                t_search, witness = _median_time(
                    lambda s=strategy: s.search(graph, make_proto(), model,
                                                faults=faults),
                    reps)
                if strategy.name == "deadlock-dfs":
                    agree = witness.deadlock == truth_dead
                else:
                    agree = witness.deadlock or witness.bits == truth_bits
                all_agree &= agree
                row = (f"{tag:<20} {faults:<14} {strategy.name:<18} "
                       f"{witness.bits:>5} {truth_bits:>5} "
                       f"{str(witness.deadlock):>5} {t_search:>9.4f} "
                       f"{t_exh:>9.4f} {'yes' if agree else 'NO'}")
                print(row)
                lines.append(row)
            lines.append(f"{'':<20} (exhaustive: {schedules} faulted "
                         "schedules)")
    lines.append("")
    lines.append(
        "(deadlock-dfs is gated on the exact reachability verdict; the "
        "bit seekers must reach the faulted maximum or find a deadlock)"
    )
    return lines, all_agree


def _median_time(fn, reps: int):
    times = []
    out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)

    lines = ["adversary search vs exhaustive ground truth", ""]
    header = (f"{'fixture':<24} {'strategy':<18} {'bits':>5} {'truth':>5} "
              f"{'dead':>5} {'steps':>7} {'seconds':>9} {'exh sec':>9} agree")
    print(header)
    lines.append(header)
    all_agree = True
    for tag, graph, make_proto, model in FIXTURES:
        def enumerate_all():
            bits, dead, count = 0, False, 0
            for r in all_executions(graph, make_proto(), model):
                bits = max(bits, r.max_message_bits)
                dead |= r.corrupted
                count += 1
            return bits, dead, count

        t_exh, (truth_bits, truth_dead, schedules) = _median_time(
            enumerate_all, args.reps)
        for make_strategy in STRATEGIES:
            strategy = make_strategy()
            t_search, witness = _median_time(
                lambda s=strategy: s.search(graph, make_proto(), model),
                args.reps)
            if strategy.name == "deadlock-dfs":
                agree = witness.deadlock == truth_dead
            else:
                agree = witness.deadlock or witness.bits == truth_bits
            all_agree &= agree
            row = (f"{tag:<24} {strategy.name:<18} {witness.bits:>5} "
                   f"{truth_bits:>5} {str(witness.deadlock):>5} "
                   f"{witness.explored:>7} {t_search:>9.4f} {t_exh:>9.4f} "
                   f"{'yes' if agree else 'NO'}")
            print(row)
            lines.append(row)
        lines.append(f"{'':<24} (exhaustive: {schedules} schedules)")

    lines.append("")
    print()
    table_lines, table_agree = transposition_section(FIXTURES, args.reps)
    lines.extend(table_lines)
    all_agree &= table_agree

    lines.append("")
    print()
    fault_lines, fault_agree = fault_matrix_section(args.reps)
    lines.extend(fault_lines)
    all_agree &= fault_agree

    lines.append("")
    lines.append(f"agreement on every fixture: {all_agree}")
    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_text("\n".join(lines) + "\n")
    print(f"\nagreement on every fixture: {all_agree}")
    print(f"report written to {REPORT_PATH}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    raise SystemExit(main())
