"""Command-line interface.

``python -m repro <command>`` (or the installed ``repro-whiteboard``):

* ``table2``  — regenerate the paper's Table 2 classification
* ``fig1``    — regenerate Figure 1 (triangle gadget) with caption check
* ``fig2``    — regenerate Figure 2 (EOB-BFS gadget) with caption check
* ``lemma1``  — measure Theorem 2 message sizes against the
  ``O(k^2 log n)`` bound
* ``lemma3``  — print the counting-bound table for the paper's classes
* ``demo``    — run one protocol on one graph and dump the whiteboard
* ``sweep``   — verification sweep over (protocol × instances ×
  adversaries) through the execution runtime, optionally ``--jobs N``;
  ``--store PATH`` serves unchanged cells from a SQLite result store
* ``stress``  — adversarial stress: exhaustive schedules at small n,
  guided adversary search above, reporting worst witness schedules
  (raw and minimised); ``--score`` swaps the badness hook,
  ``--faults crash:2,loss:1`` lets the adversary interleave
  crash-stop/lossy/duplicated-write events with the schedule,
  ``--store PATH`` serves unchanged cells from a result store
* ``campaign`` — persistent, resumable stress campaigns over a SQLite
  :class:`~repro.campaigns.store.ResultStore`: ``run`` (store hits are
  served from cache, misses execute and become durable the moment they
  finish), ``status``, ``report`` (cross-run witness trajectories),
  ``gc`` (drop results no longer live under the current spec + code
  version), ``claims`` (exhaustively check every census fault claim;
  violations exit nonzero with replayable deadlock witnesses)

``stress``, ``sweep`` and ``campaign run`` degrade gracefully: Ctrl-C (or an
exhausted search budget) commits every already-streamed outcome to the
store, prints a partial summary, and exits 130 — re-running the same
command resumes from the committed prefix.
* ``experiment`` / ``reproduce-all`` — the E1–E20 index (``--jobs`` fans
  experiments across worker processes)
* ``protocols`` — list every shipped protocol (the census registry)
* ``telemetry`` — inspect run traces: ``report`` renders per-cell
  timings, hotspot spans and shard-imbalance flags from a ``--trace-out``
  JSONL file; ``validate`` schema-checks a trace and its manifest

``sweep``, ``stress`` and ``campaign run`` accept ``--trace-out PATH``:
the run writes a JSONL telemetry event stream (plus a sibling
``*.manifest.json``) without changing any result — reports are
byte-identical traced or not.  End-of-run kernel summaries (steps,
searches, transposition hit-rate) print to *stderr*, keeping stdout
stable across semantics-free knobs like ``--jobs``.

Protocol names come from one registry — :data:`repro.protocols.census.
CENSUS_BY_KEY` — so ``demo`` choices, ``sweep`` choices and the
``protocols`` listing cannot drift apart; output oracles come from
:func:`repro.analysis.checkers.default_checker` for the same reason.
Family names come from :data:`repro.graphs.families.FAMILIES` (plus its
``FAMILY_ALIASES``): a ``sweep`` or ``stress`` run is one
:class:`~repro.campaigns.CampaignCell` per ``--protocol``, sampled and
fingerprinted exactly like the same cell of ``campaign run``, and every
cell runs in one backend submission.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager, nullcontext

__all__ = ["main", "build_parser"]

#: ``demo`` registry: CLI name -> (census key, instance family).  The
#: protocol always comes from the census entry and the graph from
#: :data:`repro.graphs.families.FAMILIES`, so the demo list, the
#: ``protocols`` listing and every ``--family`` share their sources.
_DEMOS: dict[str, tuple[str, str]] = {
    "build": ("build-degenerate", "degenerate2"),
    "mis": ("mis-greedy", "connected"),
    "two-cliques": ("two-cliques", "two-cliques-yes"),
    "eob-bfs": ("eob-bfs", "even-odd-bipartite"),
    "bfs": ("bfs-sync", "random"),
}


def _jobs(text: str) -> int:
    """The ``--jobs`` argument type: a positive worker count."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"worker count must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-whiteboard",
        description="Shared whiteboard models (Becker et al.) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t2 = sub.add_parser("table2", help="regenerate Table 2")
    t2.add_argument("--full", action="store_true", help="larger workloads")
    t2.add_argument("--seed", type=int, default=0)

    sub.add_parser("fig1", help="regenerate Figure 1")
    sub.add_parser("fig2", help="regenerate Figure 2")

    l1 = sub.add_parser("lemma1", help="Theorem 2 message-size law")
    l1.add_argument("--kmax", type=int, default=4)
    l1.add_argument("--sizes", type=int, nargs="+", default=[16, 32, 64, 128, 256])

    l3 = sub.add_parser("lemma3", help="counting-bound table")
    l3.add_argument("--sizes", type=int, nargs="+", default=[16, 32, 64, 128])

    demo = sub.add_parser("demo", help="run a protocol and dump the whiteboard")
    demo.add_argument("--protocol", default="build", choices=sorted(_DEMOS))
    demo.add_argument("--n", type=int, default=10)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--trace", action="store_true",
                      help="narrate the execution round by round")

    from .graphs.families import FAMILIES, FAMILY_ALIASES
    from .protocols.census import CENSUS_BY_KEY

    family_names = sorted({*FAMILIES, *FAMILY_ALIASES})

    def _cell_args(p, sizes: list[int]) -> None:
        """The cell and run arguments ``sweep`` and ``stress`` share."""
        p.add_argument("--protocol", dest="protocols", action="append",
                       required=True, choices=sorted(CENSUS_BY_KEY),
                       help="census protocol key (repeatable)")
        p.add_argument("--family", default="random", choices=family_names,
                       help="instance family from the graph-class registry, "
                            "or an alias of one (default: random, i.e. "
                            "G(n, 0.3))")
        p.add_argument("--sizes", type=int, nargs="+", default=sizes,
                       help="instance sizes n")
        p.add_argument("--seeds", type=int, nargs="+", default=[0],
                       help="instance seeds (one instance per size x seed)")
        p.add_argument("--store", default=None, metavar="PATH",
                       help="SQLite result store for opportunistic reuse: "
                            "cells already stored are served from it, "
                            "everything executed becomes a future hit")
        p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a JSONL telemetry event stream (plus a "
                            "sibling *.manifest.json); results are "
                            "identical with or without it")

    sw = sub.add_parser(
        "sweep",
        help="verification sweep over (protocol x instances x adversaries)")
    _cell_args(sw, sizes=[6, 9])
    sw.add_argument("--mode", default="verify",
                    choices=["verify", "single", "exhaustive"],
                    help="verify = exhaustive below the threshold, "
                         "portfolio above (default)")
    sw.add_argument("--threshold", type=int, default=5,
                    help="exhaustive-enumeration size threshold")
    sw.add_argument("--jobs", type=_jobs, default=None,
                    help="worker processes (default: serial)")

    st = sub.add_parser(
        "stress",
        help="adversary stress: exhaustive at small n, guided search above")
    _cell_args(st, sizes=[5, 9])
    st.add_argument("--threshold", type=int, default=5,
                    help="exhaustive-enumeration size threshold; larger "
                         "instances use adversary search")
    st.add_argument("--jobs", type=_jobs, default=None,
                    help="worker processes (default: serial); heavy "
                         "exhaustive cells additionally shard their "
                         "schedule tree across the workers")
    st.add_argument("--trace", action="store_true",
                    help="narrate the overall worst witness transcript")
    from .adversaries import SCORE_HOOKS

    st.add_argument("--score", default=None, choices=sorted(SCORE_HOOKS),
                    help="badness hook for the greedy/beam searches "
                         "(default: bits-greedy)")
    st.add_argument("--faults", default=None, metavar="SPEC",
                    help="adversary fault budget, e.g. 'crash:2,loss:1' "
                         "(kinds: crash, loss, dup); fault events join "
                         "the searched schedule space")

    camp = sub.add_parser(
        "campaign",
        help="persistent, resumable stress campaigns over a result store")
    csub = camp.add_subparsers(dest="campaign_command", required=True)

    def _spec_args(p, required: bool) -> None:
        p.add_argument("--protocol", dest="protocols", action="append",
                       required=required, choices=sorted(CENSUS_BY_KEY),
                       help="census protocol key (repeatable)")
        p.add_argument("--family", dest="families", action="append",
                       choices=family_names,
                       help="instance family from the graph-class registry, "
                            "or an alias of one (repeatable; default: "
                            "degenerate2)")
        p.add_argument("--sizes", type=int, nargs="+", default=[4, 6],
                       help="instance sizes n")
        p.add_argument("--seeds", type=int, nargs="+", default=[0],
                       help="instance seeds (one instance per size x seed)")
        p.add_argument("--mode", default="stress",
                       choices=["stress", "verify"],
                       help="plan mode per cell (default: stress)")
        p.add_argument("--threshold", type=int, default=5,
                       help="exhaustive-enumeration size threshold")
        p.add_argument("--allow-deadlock", action="store_true",
                       help="deadlocks count as executions, not failures "
                            "(the Corollary 4 off-promise setting)")
        p.add_argument("--score", default=None, choices=sorted(SCORE_HOOKS),
                       help="badness hook for the stress searches "
                            "(participates in task fingerprints)")
        p.add_argument("--faults", default=None, metavar="SPEC",
                       help="adversary fault budget for every cell, e.g. "
                            "'crash:1' (participates in task fingerprints)")

    crun = csub.add_parser(
        "run", help="run (or resume, or replay from cache) a campaign")
    crun.add_argument("--store", required=True,
                      help="path to the SQLite result store")
    crun.add_argument("--name", default="default",
                      help="campaign name (default: 'default')")
    _spec_args(crun, required=False)
    crun.add_argument("--quick", action="store_true",
                      help="use the built-in smoke campaign spec instead of "
                           "the --protocol/--family arguments")
    crun.add_argument("--warm-smoke", action="store_true",
                      help="use the built-in warm-frontier smoke spec (one "
                           "searched n=6 cell) instead of --protocol/--family")
    crun.add_argument("--warm-frontiers", action="store_true",
                      help="seed each search cell's transposition table from "
                           "the store's persistent frontiers and commit what "
                           "the run learned back; reports are identical, "
                           "re-expansion work shrinks run over run")
    crun.add_argument("--jobs", type=_jobs, default=None,
                      help="worker processes (default: serial)")
    crun.add_argument("--expect-hit-rate", type=float, default=None,
                      metavar="P",
                      help="exit nonzero unless at least this fraction of "
                           "tasks was served from the store (CI resume smoke)")
    crun.add_argument("--trace-out", default=None, metavar="PATH",
                      help="write a JSONL telemetry event stream (plus a "
                           "sibling *.manifest.json); results are identical "
                           "with or without it")

    cstatus = csub.add_parser("status", help="store and campaign overview")
    cstatus.add_argument("--store", required=True)

    creport = csub.add_parser(
        "report", help="render cross-run witness trajectories")
    creport.add_argument("--store", required=True)
    creport.add_argument("--name", default=None,
                         help="one campaign (default: all)")
    creport.add_argument("--diff", type=int, nargs=2, default=None,
                         metavar=("OLD", "NEW"),
                         help="also diff two generations of --name")

    cgc = csub.add_parser(
        "gc", help="drop stored results not live under the given spec "
                   "(and the current code version)")
    cgc.add_argument("--store", required=True)
    cgc.add_argument("--name", default="default")
    _spec_args(cgc, required=False)
    cgc.add_argument("--quick", action="store_true",
                     help="liveness from the built-in smoke campaign spec")
    cgc.add_argument("--warm-smoke", action="store_true",
                     help="liveness from the built-in warm-frontier smoke "
                          "spec")

    cclaims = csub.add_parser(
        "claims",
        help="check every census fault claim exhaustively; a violated "
             "claim exits nonzero with a replayable deadlock witness")
    cclaims.add_argument("--store", default=None,
                         help="optional result store (claim cells cache and "
                              "resume like any campaign)")
    cclaims.add_argument("--name", default="fault-claims",
                         help="campaign name for stored claim cells")
    cclaims.add_argument("--protocol", dest="protocols", action="append",
                         default=None, choices=sorted(CENSUS_BY_KEY),
                         help="restrict to specific protocols (repeatable)")
    cclaims.add_argument("--jobs", type=_jobs, default=None,
                         help="worker processes (default: serial)")
    cclaims.add_argument("--trace", action="store_true",
                         help="narrate the minimised witness of every "
                              "violated claim")

    exp = sub.add_parser("experiment", help="regenerate one experiment (E1-E20)")
    exp.add_argument("experiment_id", help="e.g. E5")
    exp.add_argument("--full", action="store_true", help="larger workloads")

    allp = sub.add_parser("reproduce-all", help="regenerate the whole E1-E20 index")
    size = allp.add_mutually_exclusive_group()
    size.add_argument("--full", action="store_true", help="larger workloads")
    size.add_argument("--quick", action="store_true",
                      help="small workloads (the default; explicit for scripts)")
    allp.add_argument("--jobs", type=_jobs, default=None,
                      help="fan experiments across worker processes")

    tel = sub.add_parser("telemetry", help="inspect run telemetry traces")
    tsub = tel.add_subparsers(dest="telemetry_command", required=True)
    trep = tsub.add_parser(
        "report", help="render per-cell timings, hotspots and shard "
                       "imbalance from a trace")
    trep.add_argument("trace", help="path to a --trace-out JSONL file")
    trep.add_argument("--top", type=int, default=10,
                      help="hotspot spans to show (default: 10)")
    tval = tsub.add_parser(
        "validate", help="schema-validate a trace (and its manifest)")
    tval.add_argument("trace", help="path to a --trace-out JSONL file")

    sub.add_parser("protocols", help="list every shipped protocol")
    return parser


def _cmd_table2(args) -> int:
    from .analysis.table2 import generate_table2, render_table2

    result = generate_table2(quick=not args.full, seed=args.seed)
    print(render_table2(result))
    print()
    print("regeneration matches the paper:", result.matches_paper())
    return 0 if result.all_ok else 1


def _cmd_fig(which: int) -> int:
    from .analysis.figures import render_figure1, render_figure2

    print(render_figure1() if which == 1 else render_figure2())
    return 0


def _cmd_lemma1(args) -> int:
    from .analysis.scaling import fit_klog, fit_log
    from .core import SIMASYNC, MinIdScheduler, run
    from .graphs.generators import random_k_degenerate
    from .protocols.build import DegenerateBuildProtocol

    print("Theorem 2 / Lemma 1: measured max message bits vs O(k^2 log n)")
    print(f"{'k':>3} {'n':>6} {'max bits':>9} {'k(k+1)log2(n)+2log2(n)':>24}")
    by_k: dict[int, list[tuple[int, int]]] = {}
    for k in range(1, args.kmax + 1):
        for n in args.sizes:
            g = random_k_degenerate(n, k, seed=n + k)
            r = run(g, DegenerateBuildProtocol(k), SIMASYNC, MinIdScheduler())
            bound = (k * (k + 1) + 2) * math.log2(n)
            print(f"{k:>3} {n:>6} {r.max_message_bits:>9} {bound:>24.1f}")
            by_k.setdefault(k, []).append((n, r.max_message_bits))
    for k, pairs in by_k.items():
        fit = fit_log([p[0] for p in pairs], [p[1] for p in pairs])
        print(f"  k={k}: {fit}")
    return 0


def _cmd_lemma3(args) -> int:
    from .reductions.counting import (
        log2_all_graphs,
        log2_bipartite_fixed_parts,
        log2_even_odd_bipartite,
        log2_labeled_trees,
        min_message_bits_for_build,
    )

    families = [
        ("all graphs", log2_all_graphs),
        ("bipartite (fixed parts)", log2_bipartite_fixed_parts),
        ("even-odd-bipartite", log2_even_odd_bipartite),
        ("labeled trees", log2_labeled_trees),
    ]
    print("Lemma 3: minimum bits/message for BUILD on each class")
    header = f"{'class':<26}" + "".join(f" n={n:<8}" for n in args.sizes)
    print(header)
    for name, f in families:
        row = f"{name:<26}"
        for n in args.sizes:
            row += f" {min_message_bits_for_build(f(n), n):<9.1f}"
        print(row)
    print("\n(all-graphs and bipartite rows grow like n — hence the o(n) "
          "impossibility results; the trees row grows like log n — hence "
          "Theorem 2 is tight.)")
    return 0


def _cmd_demo(args) -> int:
    from .core import MODELS_BY_NAME, RandomScheduler, run
    from .graphs.families import family
    from .protocols.census import CENSUS_BY_KEY

    census_key, family_name = _DEMOS[args.protocol]
    entry = CENSUS_BY_KEY[census_key]
    proto = entry.instantiate()
    model = MODELS_BY_NAME[entry.model]
    try:
        g = family(family_name).sample_in_class(args.n, args.seed)
    except ValueError as exc:
        raise SystemExit(f"demo: size {args.n} is invalid for family "
                         f"{family_name} ({exc})")

    result = run(g, proto, model, RandomScheduler(args.seed))
    if args.trace:
        from .analysis.trace import narrate

        print(narrate(result))
        return 0
    print(f"graph: {g}")
    print(f"protocol: {proto.name}  model: {model.name}")
    print(f"success: {result.success}")
    print("whiteboard (in write order):")
    for e in result.board.entries:
        print(f"  [{e.index:>3}] node {e.author:>3} ({e.bits:>3} bits): {e.payload}")
    print(f"output: {result.output}")
    print(f"max message: {result.max_message_bits} bits; "
          f"board total: {result.total_bits} bits")
    return 0


def _open_store(path):
    """A ResultStore for ``--store`` sweeps (created when missing — an
    opportunistic cache starts empty), or ``None`` without the flag."""
    if path is None:
        return None
    from .campaigns import ResultStore

    return ResultStore(path)


def _open_session(args, command: str):
    """A RunTelemetry session for ``--trace-out``, or ``None``."""
    path = getattr(args, "trace_out", None)
    if path is None:
        return None
    from .telemetry import RunTelemetry

    return RunTelemetry(path, command=command,
                        argv=getattr(args, "_argv", None))


def _activated(session):
    """The session's tracer scope, or a no-op block without one."""
    return session.activate() if session is not None else nullcontext()


def _kernel_line(kernel) -> None:
    """End-of-run kernel summary (steps, searches, table hit-rate).
    Printed to *stderr* on purpose: stdout reports are pinned
    byte-identical across semantics-free knobs (``--jobs``, tracing),
    and the summary is work accounting, not part of the report."""
    if kernel is not None:
        print(f"    kernel: {kernel.summary()}", file=sys.stderr)


def _interruptible(label: str, session, store, run):
    """``run()`` under the session's tracer, or ``None`` when Ctrl-C or
    an exhausted search budget stopped it.

    The stop prints one partial-progress line.  Outcomes stream into
    the store as they complete, so everything committed before it is
    durable — re-running the same command resumes from there instead
    of starting over.
    """
    from .adversaries import OutOfBudget

    try:
        with _activated(session):
            return run()
    except (KeyboardInterrupt, OutOfBudget) as exc:
        if session is not None:
            session.finish("interrupted")
        print()
        print(f"{label}: interrupted ({type(exc).__name__}); ", end="")
        if store is None:
            print("no --store, so partial results are discarded")
        else:
            print(f"{store.writes} executed outcome(s) committed, "
                  f"{store.hits} served from cache — re-run the same "
                  "command to resume")
        return None
    finally:
        if session is not None:
            session.finish()


@contextmanager
def _usage_errors(command: str):
    """Turn a ``ValueError`` raised in the block into a usage error.

    Spec mistakes (unknown cells, sizes a family cannot sample, fault
    budget typos) surface while cells and plans are built, before
    anything runs; anything raised later in the run is a real failure
    and keeps its traceback.
    """
    try:
        yield
    except ValueError as exc:
        raise SystemExit(f"{command}: {exc}")


def _cli_cells(args, families, allow_deadlock: bool = False):
    """One :class:`~repro.campaigns.CampaignCell` per ``--protocol`` ×
    family; call it under :func:`_usage_errors`."""
    from .campaigns import CampaignCell

    return tuple(
        CampaignCell(
            protocol_key=key,
            family=fam,
            sizes=tuple(args.sizes),
            seeds=tuple(args.seeds),
            allow_deadlock=allow_deadlock,
        )
        for key in args.protocols
        for fam in families
    )


def _run_cells(args, command: str, plans, show) -> int:
    """Run ``plans`` in one backend submission, through ``--store``
    when given, and list each plan's merged report (130 when
    interrupted, see :func:`_interruptible`).

    ``show(head, plan, report)`` prints one plan's listing, ``head``
    being its ``[N tasks via BACKEND]`` prefix plus the store
    accounting.
    """
    from .campaigns.runner import _run_cells_with_store
    from .runtime import resolve_backend
    from .telemetry import KernelAccumulator

    backend = resolve_backend(args.jobs)
    store = _open_store(args.store)
    session = _open_session(args, command)
    kernel = KernelAccumulator()
    if session is not None:
        for plan in plans:
            session.add_plan(plan)
    try:
        outcomes = _interruptible(
            command, session, store,
            lambda: _run_cells_with_store(
                [plan.tasks for plan in plans], store, backend=backend,
                telemetry=session, kernel=kernel,
            ),
        )
    finally:
        if store is not None:
            store.close()
    if outcomes is None:
        return 130
    all_ok = True
    for plan, (reports, hits) in zip(plans, outcomes):
        merged = plan.merge_reports(reports)
        all_ok &= merged.ok
        cached = ("" if store is None else
                  f" [store: {hits} hits, {len(plan) - hits} executed]")
        show(f"[{len(plan):>3} tasks via {backend.name}]{cached}", plan,
             merged)
    _kernel_line(kernel.kernel)
    return 0 if all_ok else 1


def _cmd_sweep(args) -> int:
    from .analysis.checkers import AcceptAny

    def show(head, plan, report) -> None:
        vacuous = (
            "  (no oracle registered: success/size only)"
            if isinstance(plan.tasks[0].checker, AcceptAny) else ""
        )
        print(f"{head} {report.summary()}{vacuous}")
        for n, bits in sorted(report.max_bits_by_n.items()):
            print(f"    n={n}: max message {bits} bits")

    with _usage_errors("sweep"):  # samples every instance, once
        plans = [cell.build_plan(args.mode, args.threshold)
                 for cell in _cli_cells(args, [args.family])]
    return _run_cells(args, "sweep", plans, show)


def _cmd_stress(args) -> int:
    def show(head, plan, report) -> None:
        print(f"{head} {report.summary()}")
        for witness in report.witnesses:
            outcome = ("DEADLOCK" if witness.deadlock
                       else f"{witness.bits:>3} bits")
            schedule = ",".join(map(str, witness.schedule))
            if len(schedule) > 48:
                schedule = schedule[:45] + "..."
            minimal = ""
            if witness.minimal_schedule is not None:
                shrunk = ",".join(map(str, witness.minimal_schedule))
                if len(shrunk) > 32:
                    shrunk = shrunk[:29] + "..."
                minimal = (f"  minimal {shrunk or '()'} "
                           f"({len(witness.minimal_schedule)}"
                           f"/{len(witness.schedule)} events)")
            print(f"    n={witness.graph.n:>3} {witness.strategy:<20} "
                  f"{outcome}  schedule {schedule}{minimal}")
        if args.trace and report.witnesses:
            from .analysis.trace import narrate_witness

            worst = max(
                report.witnesses,
                key=lambda w: (w.deadlock, w.bits),
            )
            print()
            print(narrate_witness(worst, plan.tasks[0].protocol))

    with _usage_errors("stress"):  # samples every instance, once
        plans = [cell.build_plan("stress", args.threshold, score=args.score,
                                 faults=args.faults)
                 for cell in _cli_cells(args, [args.family])]
    return _run_cells(args, "stress", plans, show)


def _campaign(args):
    """The :class:`~repro.campaigns.Campaign` of the CLI arguments (or
    the --quick / --warm-smoke preset), lowered to its plans before
    anything runs.

    Spec mistakes — unknown cells, fault-budget typos, sizes a family
    cannot sample — surface here as clean usage errors (see
    :func:`_usage_errors`).  The run or liveness query that follows
    reuses these plans, so each instance is sampled once.
    """
    from .campaigns import (Campaign, CampaignSpec, quick_campaign,
                            warm_smoke_campaign)

    with _usage_errors("campaign"):
        if getattr(args, "quick", False) or getattr(args, "warm_smoke", False):
            preset = (
                quick_campaign if getattr(args, "quick", False)
                else warm_smoke_campaign
            )
            spec = preset(args.name)
            if getattr(args, "faults", None) is not None:
                import dataclasses

                spec = dataclasses.replace(spec, faults=args.faults)
        elif not args.protocols:
            raise SystemExit(
                "campaign: provide at least one --protocol (or use --quick)"
            )
        else:
            spec = CampaignSpec(
                name=args.name,
                cells=_cli_cells(args, args.families or ["degenerate2"],
                                 allow_deadlock=args.allow_deadlock),
                mode=args.mode,
                exhaustive_threshold=args.threshold,
                score=args.score,
                faults=args.faults,
            )
        campaign = Campaign(spec)
        campaign.plans  # samples every instance, once
    return campaign


def _existing_store(path: str):
    """Open a store that must already exist (status/report/gc must not
    conjure an empty database out of a typo'd path)."""
    from pathlib import Path

    from .campaigns import ResultStore

    if path != ":memory:" and not Path(path).exists():
        raise SystemExit(
            f"campaign: store {path!r} does not exist — create one with "
            f"`campaign run --store {path} ...`"
        )
    return ResultStore(path)


def _cmd_campaign_run(args) -> int:
    from .campaigns import ResultStore
    from .runtime import resolve_backend

    campaign = _campaign(args)
    backend = resolve_backend(args.jobs)
    session = _open_session(args, "campaign run")
    with ResultStore(args.store) as store:
        result = _interruptible(
            f"campaign {campaign.spec.name!r}", session, store,
            lambda: campaign.run(
                store, backend=backend, telemetry=session,
                warm_frontiers=getattr(args, "warm_frontiers", False),
            ),
        )
        if result is None:
            return 130
        print(f"[store {args.store}, backend {backend.name}]")
        for cell_result in result.cells:
            cell = cell_result.cell
            print(f"  {cell.protocol_key} x {cell.family}: "
                  f"{cell_result.tasks} tasks, {cell_result.hits} hits, "
                  f"{cell_result.executed} executed — "
                  f"{cell_result.report.summary()}")
        print(result.summary())
        _kernel_line(result.kernel)
        if args.expect_hit_rate is not None and (
            result.hit_rate < args.expect_hit_rate
        ):
            print(f"EXPECTED hit rate >= {args.expect_hit_rate:.0%}, "
                  f"got {result.hit_rate:.0%}")
            return 1
        return 0 if result.ok else 1


def _cmd_campaign_status(args) -> int:
    with _existing_store(args.store) as store:
        stats = store.stats()
        print(f"store {stats['path']} (code salt {stats['salt']})")
        print(f"  cached results: {stats['results']}")
        print(f"  frontier rows: {stats['frontiers']}")
        names = sorted(
            set(stats["results_by_campaign"]) | set(stats["generations"])
        )
        for campaign in names:
            count = stats["results_by_campaign"].get(campaign, 0)
            generations = stats["generations"].get(campaign, 0)
            print(f"    {campaign}: {count} results, "
                  f"{generations} trajectory generation(s)")
            kernel = store.kernel_summary(campaign)
            if kernel is not None:
                print(f"      kernel (last run): {kernel.summary()}")
    return 0


def _cmd_campaign_report(args) -> int:
    from .campaigns import diff_generations, render_trajectories

    with _existing_store(args.store) as store:
        print(render_trajectories(store, args.name))
        if args.diff is not None:
            if args.name is None:
                raise SystemExit("campaign report --diff needs --name")
            old, new = args.diff
            lines = diff_generations(store, args.name, old, new)
            print()
            print(f"diff of {args.name!r} generations {old} -> {new}:")
            for line in lines or ["  (identical extremal records)"]:
                print(f"  {line}")
    return 0


def _cmd_campaign_gc(args) -> int:
    campaign = _campaign(args)
    spec = campaign.spec
    with _existing_store(args.store) as store:
        before = store.result_count()
        removed = store.gc(
            campaign.live_fingerprints(store), campaign=spec.name
        )
        frontiers_removed = store.gc_frontiers(
            campaign.live_frontier_cell_keys()
        )
        print(f"gc[{spec.name}]: removed {removed} stale results, "
              f"{before - removed} remain in the store; "
              f"{frontiers_removed} stale frontier rows removed, "
              f"{store.frontier_count()} remain")
    return 0


def _cmd_campaign_claims(args) -> int:
    from .faults.claims import verify_claims
    from .protocols.census import CENSUS_BY_KEY
    from .runtime import resolve_backend

    backend = resolve_backend(args.jobs)
    store = _open_store(args.store)
    try:
        try:
            verdicts = verify_claims(
                store=store, backend=backend,
                keys=args.protocols, name=args.name,
            )
        except ValueError as exc:
            raise SystemExit(f"campaign claims: {exc}")
        violated = [v for v in verdicts if v.violated]
        for verdict in verdicts:
            print(verdict.summary())
        if args.trace and violated:
            from .analysis.trace import narrate_witness

            for verdict in violated:
                entry = CENSUS_BY_KEY[verdict.protocol_key]
                print()
                print(f"-- witness refuting {verdict.protocol_key} "
                      f"under {verdict.claim} --")
                print(narrate_witness(verdict.witnesses[0],
                                      entry.instantiate()))
        print()
        print(f"{len(verdicts) - len(violated)}/{len(verdicts)} fault "
              "claims hold (checked exhaustively)")
    finally:
        if store is not None:
            store.close()
    return 1 if violated else 0


def _cmd_campaign(args) -> int:
    handler = {
        "run": _cmd_campaign_run,
        "status": _cmd_campaign_status,
        "report": _cmd_campaign_report,
        "gc": _cmd_campaign_gc,
        "claims": _cmd_campaign_claims,
    }[args.campaign_command]
    return handler(args)


def _cmd_telemetry(args) -> int:
    from .telemetry import (
        TraceSchemaError,
        load_trace,
        render_report,
        validate_trace,
    )

    try:
        if args.telemetry_command == "validate":
            manifest = validate_trace(args.trace)
            print(f"ok: run {manifest['run_id']} "
                  f"({manifest['command'] or 'run'}) — "
                  f"{manifest['tasks']} tasks, "
                  f"{manifest['traced_tasks']} traced, "
                  f"{manifest['store_hits']} store hits, "
                  f"schema {manifest['schema']}")
            return 0
        trace = load_trace(args.trace)
    except FileNotFoundError:
        raise SystemExit(f"telemetry: no such trace {args.trace!r}")
    except TraceSchemaError as exc:
        print(f"INVALID: {exc}")
        return 1
    print(render_report(trace, top=args.top), end="")
    return 0


def _cmd_experiment(args) -> int:
    from .experiments import get_experiment

    exp = get_experiment(args.experiment_id)
    print(f"{exp.experiment_id} — {exp.title}  (paper artefact: {exp.paper_artifact})")
    print()
    result = exp.run(quick=not args.full)
    print(result.artifact)
    print()
    print("verdict:", "OK" if result.ok else "FAILED")
    return 0 if result.ok else 1


def _cmd_reproduce_all(args) -> int:
    from .experiments import run_all

    results = run_all(quick=not args.full, jobs=args.jobs)
    failed = [r for r in results if not r.ok]
    for r in results:
        print(f"{r.experiment_id:<5} {'OK' if r.ok else 'FAILED'}   ", end="")
        first = r.artifact.splitlines()[0] if r.artifact else ""
        print(first)
    print()
    print(f"{len(results) - len(failed)}/{len(results)} experiments regenerated OK")
    return 0 if not failed else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Remembered for run manifests (--trace-out); parse_args already
    # fell back to sys.argv itself when argv is None.
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    if args.command == "table2":
        return _cmd_table2(args)
    if args.command == "fig1":
        return _cmd_fig(1)
    if args.command == "fig2":
        return _cmd_fig(2)
    if args.command == "lemma1":
        return _cmd_lemma1(args)
    if args.command == "lemma3":
        return _cmd_lemma3(args)
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "stress":
        return _cmd_stress(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "telemetry":
        return _cmd_telemetry(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "reproduce-all":
        return _cmd_reproduce_all(args)
    if args.command == "protocols":
        from .protocols.census import render_census

        print(render_census())
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
