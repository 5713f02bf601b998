"""Execution plans: the (graph × protocol × model × scheduler) product.

The paper's results are universally quantified — "for every adversary",
"for every input in the class" — so every empirical claim in this repo
is a *sweep* over cells of that product.  An :class:`ExecutionPlan`
enumerates the cells once, deterministically, into picklable
:class:`ExecutionTask` specs; a :class:`~repro.runtime.backends.Backend`
then executes them serially or fanned across processes.  Everything that
used to hand-roll this loop (``verify_protocol``, the parallel sweep
module, the experiment registry, the CLI) builds a plan instead.

Plan modes:

* ``single`` — each cell runs once per scheduler in the portfolio.
* ``exhaustive`` — each cell enumerates *every* adversary schedule.
* ``verify`` — the harness policy: exhaustive when the instance is small
  enough (``n <= exhaustive_threshold``), scheduler portfolio otherwise,
  raw transcripts dropped so only aggregates cross process boundaries.
* ``stress`` — the adversarial policy: exhaustive below the threshold,
  *guided adversary search* (:mod:`repro.adversaries`) above — replacing
  the verify-mode cliff where large instances fall back to a fixed
  portfolio.  Every cell records concrete worst witness schedules in
  ``VerificationReport.witnesses``.

Tasks are frozen and fully resolved at build time (the ``bit_budget``
callable, for instance, is applied to each graph's ``n`` up front), so a
task pickles cleanly and executes identically in any process.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any, Optional, Union

from ..adversaries import (
    AdversarySearch,
    SearchContext,
    TranspositionTable,
    default_search_portfolio,
    resolve_score,
)
from ..core.execution import ExecutionState, replay_schedule
from ..core.models import MODELS_BY_NAME, ModelSpec
from ..core.protocol import Protocol
from ..core.schedulers import Scheduler, default_portfolio
from ..core.simulator import RunResult, all_executions, run, terminal_states
from ..faults.spec import FaultSpec, resolve_faults
from ..graphs.labeled_graph import LabeledGraph
from ..telemetry import TaskCollection
from ..telemetry import tracer as _trace
from . import quotient
from .results import (
    ListSink,
    ReportMergeSink,
    ResultSink,
    TaskOutcome,
    VerificationReport,
    WitnessRecord,
)

__all__ = ["Checker", "ExecutionTask", "ExecutionPlan"]

#: ``checker(graph, output, result) -> bool`` — truthy means correct.
#: Exhaustive cells folded over the quotient configuration DAG
#: (:mod:`repro.runtime.quotient`) call it once per terminal
#: configuration, with the result of the first schedule reaching it, so
#: a checker must be a function of ``(graph, output)``; every checker in
#: :mod:`repro.analysis.checkers` is.  The fold's guard raises
#: :class:`~repro.core.errors.ProtocolViolation` on one that reads the
#: schedule.
Checker = Callable[[LabeledGraph, Any, "RunResult"], bool]

_MODES = ("single", "exhaustive", "verify", "stress")


@dataclass(frozen=True)
class ExecutionTask:
    """One independent cell of a sweep, resolved and picklable.

    ``mode`` is ``"schedules"`` (run once per scheduler),
    ``"exhaustive"`` (enumerate every adversary schedule) or
    ``"search"`` (run every adversary-search strategy); the plan-level
    ``verify``/``stress`` modes lower each cell to one of these at
    build time.  ``capture_witnesses`` makes the cell record concrete
    worst schedules in its report (stress cells always do).
    """

    index: int
    graph: LabeledGraph
    protocol: Protocol
    model_name: str
    mode: str
    schedulers: tuple[Scheduler, ...] = ()
    adversaries: tuple[AdversarySearch, ...] = ()
    checker: Optional[Checker] = None
    bit_budget: Optional[int] = None
    allow_deadlock: bool = False
    keep_runs: bool = True
    capture_witnesses: bool = False
    #: Attach a shrunk forcing schedule to every recorded witness.  The
    #: ddmin pass costs O(len²) schedule replays per witness, so plans
    #: sweeping very large instances may turn it off.
    minimize_witnesses: bool = True
    #: The search-kernel knob, lowered from the plan build and carried
    #: as a primitive attr so campaign fingerprints see it: the
    #: :data:`repro.adversaries.SCORE_HOOKS` name baked into the cell's
    #: strategies (``None`` = default bits-greedy).
    score: Optional[str] = None
    #: Canonical fault-budget spec string (``"crash:1,loss:2"``) or
    #: ``None`` for the reliable semantics.  Primitive on purpose: it is
    #: fingerprinted into campaign stores like every other knob, and
    #: ``None`` keeps fault-free tasks byte-identical to pre-fault ones.
    faults: Optional[str] = None
    #: Warm transposition frontiers: ``(config_key, TableEntry)`` pairs
    #: preloaded into the cell's table before any search runs, served by
    #: a persistent frontier store (see :mod:`repro.campaigns.frontiers`).
    #: ``None`` disables the frontier path entirely, and the cell's
    #: strategies search without a transposition table; a (possibly
    #: empty) tuple enables it — the cell attaches one table shared by
    #: its strategies, preloads the seeds, and exports its dirty rows on
    #: the outcome.  ``task_fingerprint`` deliberately excludes it:
    #: warm entries change only the work of a search that finishes
    #: within its step budget, though they can change the witness of a
    #: budget-bound one (the budget then reaches other nodes).
    frontiers: Optional[tuple] = None

    @property
    def model(self) -> ModelSpec:
        return MODELS_BY_NAME[self.model_name]

    def execute(self) -> TaskOutcome:
        """Run the cell and aggregate, mirroring the serial harness exactly.

        Wraps :meth:`_run_cell` in a telemetry collection scope: the
        deterministic kernel snapshot (and, while tracing, the timing
        payload) is attached to the outcome on the way out.  Observation
        only — cells that touch nothing observable return the identical
        outcome object :meth:`_run_cell` built.
        """
        collect = TaskCollection(self)
        with collect:
            outcome = self._run_cell(collect)
        return collect.finalize(outcome)

    def _run_cell(self, collect) -> TaskOutcome:
        """The cell body proper (``collect`` is the observation scope).

        Deadlocks under ``allow_deadlock`` count as executions but do not
        touch the bit maxima — the historical ``verify_protocol``
        behaviour, which equivalence tests pin.  Search cells run each
        adversary strategy and replay its witness schedule through the
        engine, so witnesses are checked (and budget-enforced) exactly
        like any other execution.
        """
        model = self.model
        witness_runs: list[tuple[str, RunResult]] = []
        reason = quotient.ineligible(self)
        if self.mode == "exhaustive":
            # A lazy walk: a cell folded over the quotient DAG below
            # never starts it.
            results: Iterable[RunResult] = all_executions(
                self.graph, self.protocol, model,
                bit_budget=self.bit_budget, faults=self.faults,
            )
        elif self.mode == "search":
            # Always hand the strategies one shared SearchContext so its
            # cumulative SearchStats can be snapshotted.  Equivalent to
            # the ensure(None) each strategy would otherwise do: the
            # table is None unless the cell serves warm frontiers,
            # max_steps is None, and nothing reads the stats back into
            # the search.
            table = None
            if self.frontiers is not None:
                table = TranspositionTable()
                table.preload(self.frontiers)
            context = SearchContext(table=table)
            collect.observe_context(context)

            def searched() -> Iterable[RunResult]:
                for strategy in self.adversaries:
                    with _trace.span("search",
                                     strategy=strategy.name) as span:
                        witness = strategy.search(
                            self.graph, self.protocol, model,
                            bit_budget=self.bit_budget,
                            context=context,
                            faults=self.faults,
                        )
                        span.set("explored", witness.explored)
                    _trace.count("search.explored", witness.explored)
                    with _trace.span("replay", strategy=strategy.name):
                        result = replay_schedule(
                            self.graph, self.protocol, model,
                            witness.schedule, self.bit_budget,
                            faults=self.faults,
                        )
                    witness_runs.append((strategy.name, result))
                    yield result
            results = searched()
        else:
            results = (
                run(self.graph, self.protocol, model, sched,
                    bit_budget=self.bit_budget)
                for sched in self.schedulers
            )
        report: Optional[VerificationReport] = None
        if self.checker is not None:
            report = VerificationReport(self.protocol.name, self.model_name)
            report.instances = 1
            if self.mode == "exhaustive":
                report.exhaustive_instances = 1
        kept: Optional[list[RunResult]] = [] if self.keep_runs else None
        with _trace.span("fold", index=self.index, mode=self.mode) as span:
            if reason is None:
                span.set("walk", "dag")
                dag = quotient.QuotientFold(self)
                worst, first_deadlock = dag.fold_below((), report)
                _trace.count("exhaustive.configurations", dag.configurations)
                _trace.count("exhaustive.edges", dag.edges)
            else:
                if self.mode == "exhaustive":
                    span.set("walk", "tree")
                    span.set("reason", reason)
                worst, first_deadlock = self._fold_results(
                    results, report, kept)
        if report is not None and self.capture_witnesses:
            if self.mode == "exhaustive":
                if worst is not None:
                    self._record_witness(report, "exhaustive", worst)
                if first_deadlock is not None and first_deadlock is not worst:
                    self._record_witness(
                        report, "exhaustive-deadlock", first_deadlock
                    )
            else:
                for strategy_name, result in witness_runs:
                    self._record_witness(report, strategy_name, result)
        frontier_rows: Optional[tuple] = None
        if self.mode == "search" and self.frontiers is not None:
            # Everything this run recorded or tightened, for the
            # persistent store; preloaded (warm) rows are not dirty, so
            # a pure re-serve exports nothing.
            frontier_rows = tuple(table.export_dirty())
        return TaskOutcome(
            self.index, report, tuple(kept) if kept is not None else None,
            frontiers=frontier_rows,
        )

    def _fold_results(
        self,
        results: Iterable[RunResult],
        report: Optional[VerificationReport],
        kept: Optional[list[RunResult]],
    ) -> tuple[Optional[RunResult], Optional[RunResult]]:
        """The one aggregation loop: fold ``results`` (DFS order) into
        ``report``/``kept`` in place and return ``(worst,
        first_deadlock)``.  Shared by the serial :meth:`execute`, shard
        workers (:meth:`_execute_shard`) and the shard merge, so every
        tree walk aggregates identically by construction; the quotient
        DAG fold (:mod:`repro.runtime.quotient`) reproduces it field
        for field."""
        worst: Optional[RunResult] = None
        first_deadlock: Optional[RunResult] = None
        for result in results:
            if kept is not None:
                kept.append(result)
            if self.capture_witnesses and self.mode == "exhaustive":
                if worst is None or result.max_message_bits > worst.max_message_bits:
                    worst = result
                if first_deadlock is None and result.corrupted:
                    first_deadlock = result
            if report is None:
                continue
            if result.corrupted and self.allow_deadlock:
                report.executions += 1
                continue
            report.record(self.graph, result, self._check(result))
        return worst, first_deadlock

    def _execute_shard(self, prefixes):
        """Worker side of a sharded exhaustive cell: fold every leaf
        below each schedule prefix of the lot and return each prefix's
        partial aggregate, keyed for the parent merge.  Exceptions
        propagate raw.

        A partial is ``(report, kept, worst, first_deadlock, dag)``,
        with the report's instance counters left at zero (the merge's
        header supplies them once).  A cell that qualifies for the
        quotient DAG folds each prefix over one memo shared by the lot,
        and ``dag`` is the ``(configurations, edges)`` that prefix
        added; otherwise one scalar state (one output memo for the lot)
        walks the tree below each prefix, folding each leaf as it
        streams, and ``dag`` is ``None``.
        """
        dag = (quotient.QuotientFold(self)
               if quotient.ineligible(self) is None else None)
        if dag is None:
            state = ExecutionState.initial(
                self.graph, self.protocol, self.model, self.bit_budget,
                faults=self.faults).memoize_outputs()
        partials = {}
        for prefix in prefixes:
            report: Optional[VerificationReport] = None
            if self.checker is not None:
                report = VerificationReport(self.protocol.name,
                                            self.model_name)
            kept: Optional[list[RunResult]] = [] if self.keep_runs else None
            if dag is not None:
                before = (dag.configurations, dag.edges)
                worst, first_deadlock = dag.fold_below(prefix, report)
                work = (dag.configurations - before[0], dag.edges - before[1])
            else:
                state.restore(0)
                for choice in prefix:
                    state.advance(choice)
                worst, first_deadlock = self._fold_results(
                    (leaf.result() for leaf in terminal_states(state)),
                    report, kept)
                work = None
            partials[prefix] = (report,
                                tuple(kept) if kept is not None else None,
                                worst, first_deadlock, work)
        return partials

    def _merge_shards(self, units, partials: dict) -> TaskOutcome:
        """Parent side: walk the DFS unit list, folding above-frontier
        results directly and merging worker partials where their prefix
        sits, then apply the witness tail — field-identical to
        :meth:`execute` because report merging is associative and every
        fold below used the same loop in the same order."""
        report: Optional[VerificationReport] = None
        if self.checker is not None:
            report = VerificationReport(self.protocol.name, self.model_name)
            report.instances = 1
            report.exhaustive_instances = 1
        kept: Optional[list[RunResult]] = [] if self.keep_runs else None
        worst: Optional[RunResult] = None
        first_deadlock: Optional[RunResult] = None
        configurations = edges = 0
        for kind, payload in units:
            if kind == "result":
                unit_worst, unit_deadlock = self._fold_results(
                    [payload], report, kept)
            else:
                part_report, part_kept, unit_worst, unit_deadlock, work = (
                    partials[payload])
                if report is not None:
                    report.merge(part_report)
                if kept is not None:
                    kept.extend(part_kept)
                if work is not None:
                    configurations += work[0]
                    edges += work[1]
            if unit_worst is not None and (
                    worst is None
                    or unit_worst.max_message_bits > worst.max_message_bits):
                worst = unit_worst
            if first_deadlock is None and unit_deadlock is not None:
                first_deadlock = unit_deadlock
        if configurations:
            _trace.count("exhaustive.configurations", configurations)
            _trace.count("exhaustive.edges", edges)
        if report is not None and self.capture_witnesses:
            if worst is not None:
                self._record_witness(report, "exhaustive", worst)
            if first_deadlock is not None and first_deadlock is not worst:
                self._record_witness(
                    report, "exhaustive-deadlock", first_deadlock)
        return TaskOutcome(
            self.index, report, tuple(kept) if kept is not None else None
        )

    def _check(self, result: RunResult) -> bool:
        """Checker verdict for one execution.

        Fault-free tasks call the checker exactly as before.  Under a
        fault budget, a recorded decode failure is an incorrect outcome
        (not a crash), and a checker that raises on a fault-perturbed
        board counts as incorrect for the same reason.
        """
        if not result.success:
            return False
        if self.faults is None:
            return bool(self.checker(self.graph, result.output, result))
        if result.output_error is not None:
            return False
        try:
            return bool(self.checker(self.graph, result.output, result))
        except Exception:  # noqa: BLE001 - fault-perturbed boards only
            return False

    def _record_witness(self, report: VerificationReport, strategy: str,
                        result: RunResult) -> None:
        # result.schedule carries fault events; it equals write_order for
        # reliable runs (and pre-fault RunResults leave it empty).
        schedule = result.schedule or result.write_order
        minimal = None
        if self.minimize_witnesses:
            from ..adversaries.base import minimize_schedule

            with _trace.span("minimize", strategy=strategy, n=self.graph.n):
                minimal = minimize_schedule(
                    self.graph, self.protocol, self.model, schedule,
                    bits=result.max_message_bits, deadlock=result.corrupted,
                    bit_budget=self.bit_budget, faults=self.faults,
                )
        report.witnesses.append(WitnessRecord(
            strategy=strategy,
            graph=self.graph,
            model_name=self.model_name,
            schedule=schedule,
            bits=result.max_message_bits,
            deadlock=result.corrupted,
            minimal_schedule=minimal,
            faults=self.faults,
        ))


def _as_tuple(value, kind) -> tuple:
    if isinstance(value, kind):
        return (value,)
    return tuple(value)


@dataclass(frozen=True)
class ExecutionPlan:
    """A deterministic, indexed list of execution tasks.

    Built once, runnable on any backend; task ``index`` is the only
    ordering authority, so results are identical no matter how a backend
    shards or races the work.
    """

    tasks: tuple[ExecutionTask, ...]
    protocol_names: tuple[str, ...]
    model_names: tuple[str, ...]
    mode: str

    @classmethod
    def build(
        cls,
        protocols: Union[Protocol, Sequence[Protocol]],
        models: Union[ModelSpec, Sequence[ModelSpec]],
        instances: Iterable[LabeledGraph],
        *,
        mode: str = "single",
        schedulers: Optional[Sequence[Scheduler]] = None,
        adversaries: Optional[Sequence[AdversarySearch]] = None,
        checker: Optional[Checker] = None,
        exhaustive_threshold: int = 5,
        bit_budget: Union[None, int, Callable[[int], int]] = None,
        allow_deadlock: bool = False,
        keep_runs: Optional[bool] = None,
        minimize_witnesses: bool = True,
        score: Optional[str] = None,
        faults: Union[None, str, FaultSpec] = None,
    ) -> "ExecutionPlan":
        """Enumerate the (protocol × model × instance) product into tasks.

        Enumeration order is protocol-major, then model, then instance —
        stable for any input ordering, so a plan built twice from the
        same arguments is identical task for task.  ``adversaries``
        (stress mode only) defaults to
        :func:`repro.adversaries.default_search_portfolio`, built with
        the ``score`` hook when one is named.
        """
        if mode not in _MODES:
            raise ValueError(f"unknown plan mode {mode!r}; expected one of {_MODES}")
        if adversaries is not None and mode != "stress":
            raise ValueError(
                f"adversaries are only used by stress plans; mode is {mode!r}"
            )
        if score is not None and mode != "stress":
            raise ValueError(
                "score is a search-kernel knob; it only applies to "
                f"stress plans, and mode is {mode!r}"
            )
        if score is not None and adversaries is not None:
            raise ValueError(
                "pass either a score hook name (baked into the default "
                "portfolio) or explicit adversaries, not both"
            )
        if score is not None:
            resolve_score(score)  # fail fast on unknown hook names
        fault_spec = resolve_faults(faults).canonical()
        if fault_spec is not None and mode not in ("exhaustive", "stress"):
            raise ValueError(
                "fault budgets need adversary-searched (stress) or "
                "exhaustively enumerated cells; scheduler portfolios "
                f"cannot choose fault events, and mode is {mode!r}"
            )
        protos = _as_tuple(protocols, Protocol)
        model_specs = _as_tuple(models, ModelSpec)
        graphs = list(instances)
        scheds = (
            tuple(schedulers) if schedulers is not None
            else tuple(default_portfolio())
        )
        searches = (
            tuple(adversaries) if adversaries is not None
            else tuple(default_search_portfolio(score=score))
            if mode == "stress"
            else ()
        )
        if keep_runs is None:
            keep_runs = mode not in ("verify", "stress")
        if checker is None and not keep_runs:
            raise ValueError("a plan without a checker must keep its runs")
        tasks: list[ExecutionTask] = []
        for proto in protos:
            for model in model_specs:
                for graph in graphs:
                    budget = bit_budget(graph.n) if callable(bit_budget) else bit_budget
                    if mode == "exhaustive":
                        task_mode = "exhaustive"
                    elif mode in ("verify", "stress"):
                        if graph.n <= exhaustive_threshold:
                            task_mode = "exhaustive"
                        elif mode == "stress":
                            task_mode = "search"
                        else:
                            task_mode = "schedules"
                    else:
                        task_mode = "schedules"
                    tasks.append(ExecutionTask(
                        index=len(tasks),
                        graph=graph,
                        protocol=proto,
                        model_name=model.name,
                        mode=task_mode,
                        schedulers=scheds if task_mode == "schedules" else (),
                        adversaries=searches if task_mode == "search" else (),
                        checker=checker,
                        bit_budget=budget,
                        allow_deadlock=allow_deadlock,
                        keep_runs=keep_runs,
                        capture_witnesses=mode == "stress",
                        minimize_witnesses=minimize_witnesses,
                        score=score if task_mode == "search" else None,
                        faults=fault_spec,
                    ))
        return cls(
            tasks=tuple(tasks),
            protocol_names=tuple(dict.fromkeys(p.name for p in protos)),
            model_names=tuple(dict.fromkeys(m.name for m in model_specs)),
            mode=mode,
        )

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[ExecutionTask]:
        return iter(self.tasks)

    def run(self, backend=None, sink: Optional[ResultSink] = None):
        """Execute every task on ``backend``, streaming outcomes into
        ``sink`` in task order; returns ``sink.result()``.

        Defaults: :class:`~repro.runtime.backends.SerialBackend` and a
        :class:`~repro.runtime.results.ListSink` (list of outcomes).
        """
        from .backends import SerialBackend

        if backend is None:
            backend = SerialBackend()
        if sink is None:
            sink = ListSink()
        for outcome in backend.run(self.tasks):
            sink.add(outcome)
        return sink.result()

    def merge_reports(
        self, reports: Iterable[VerificationReport]
    ) -> VerificationReport:
        """Fold per-task ``reports``, in task order, into one report
        named like :meth:`verification_report`'s."""
        merged = VerificationReport(
            "+".join(self.protocol_names), "+".join(self.model_names)
        )
        for report in reports:
            merged.merge(report)
        return merged

    def verification_report(self, backend=None) -> VerificationReport:
        """Run the plan and merge per-task reports into one."""
        sink = ReportMergeSink(
            "+".join(self.protocol_names), "+".join(self.model_names)
        )
        return self.run(backend=backend, sink=sink)
