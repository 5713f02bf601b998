"""Result types and streaming sinks for the execution runtime.

:class:`VerificationReport` (and its per-execution :class:`Failure`
records) is the canonical aggregate of a correctness sweep.  It
historically lived in :mod:`repro.analysis.verify`, which still
re-exports it; it moved here so the runtime layer — which produces
per-task reports in worker processes — can depend on it without
importing the analysis layer.

Backends deliver :class:`TaskOutcome` objects in deterministic task
order; a :class:`ResultSink` consumes them one at a time, so arbitrarily
large sweeps never require holding every execution in memory at once.
:class:`ReportMergeSink` folds per-task reports into a single
:class:`VerificationReport` via :meth:`VerificationReport.merge` — the
one merging loop shared by the serial path and the process backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from ..graphs.labeled_graph import LabeledGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.simulator import RunResult
    from ..telemetry.stats import KernelAccumulator, KernelStats
    from ..telemetry.tracer import TaskTelemetry

__all__ = [
    "Failure",
    "WitnessRecord",
    "VerificationReport",
    "TaskOutcome",
    "ResultSink",
    "ListSink",
    "ReportMergeSink",
    "StoreBackedSink",
    "KernelStatsSink",
]


@dataclass(frozen=True)
class Failure:
    """One incorrect or deadlocked execution."""

    graph: LabeledGraph
    schedule: tuple[int, ...]
    output: Any
    kind: str  # "wrong-output" | "deadlock"


@dataclass(frozen=True)
class WitnessRecord:
    """A worst adversary schedule surfaced by a stress sweep.

    Unlike a bare maximum, a witness is replayable evidence: ``schedule``
    applied to ``graph`` under ``model_name`` reproduces ``bits`` (or the
    deadlock) exactly — :func:`repro.analysis.trace.narrate_witness`
    renders the full transcript.  ``strategy`` is the adversary search
    that found it, or ``"exhaustive"`` below the enumeration threshold.
    """

    strategy: str
    graph: LabeledGraph
    model_name: str
    schedule: tuple[int, ...]
    bits: int
    deadlock: bool
    #: Shrunk forcing schedule (:func:`repro.adversaries.minimize_schedule`):
    #: for deadlock witnesses a complete terminal schedule, for bits
    #: witnesses the minimal forcing prefix.  ``None`` when the recording
    #: cell skipped minimisation.
    minimal_schedule: Optional[tuple[int, ...]] = None
    #: Canonical fault-budget spec the witness was found (and must be
    #: replayed) under; ``None`` for reliable-semantics witnesses.  A
    #: faulted ``schedule`` encodes its fault events as negative
    #: integers (see :mod:`repro.faults.spec`).
    faults: Optional[str] = None


@dataclass
class VerificationReport:
    """Aggregated result of a verification sweep."""

    protocol_name: str
    model_name: str
    instances: int = 0
    executions: int = 0
    exhaustive_instances: int = 0
    failures: list[Failure] = field(default_factory=list)
    max_message_bits: int = 0
    max_bits_by_n: dict[int, int] = field(default_factory=dict)
    witnesses: list[WitnessRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, graph: LabeledGraph, result: "RunResult", correct: bool) -> None:
        self.executions += 1
        self.max_message_bits = max(self.max_message_bits, result.max_message_bits)
        prev = self.max_bits_by_n.get(graph.n, 0)
        self.max_bits_by_n[graph.n] = max(prev, result.max_message_bits)
        schedule = result.schedule or result.write_order
        if result.corrupted:
            self.failures.append(
                Failure(graph, schedule, None, "deadlock")
            )
        elif not correct:
            self.failures.append(
                Failure(graph, schedule, result.output, "wrong-output")
            )

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        """Fold ``other`` into this report (counts, failures, bit maxima).

        Merging is associative and order-preserving over ``failures``,
        ``witnesses`` and ``max_bits_by_n`` insertion order, so folding
        per-task reports in task order reproduces the serial sweep field
        for field.  Returns ``self`` for chaining.
        """
        self.instances += other.instances
        self.executions += other.executions
        self.exhaustive_instances += other.exhaustive_instances
        self.failures.extend(other.failures)
        self.witnesses.extend(other.witnesses)
        self.max_message_bits = max(self.max_message_bits, other.max_message_bits)
        for n, bits in other.max_bits_by_n.items():
            self.max_bits_by_n[n] = max(self.max_bits_by_n.get(n, 0), bits)
        return self

    def summary(self) -> str:
        state = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        witnesses = (
            f", {len(self.witnesses)} witnesses" if self.witnesses else ""
        )
        return (
            f"{self.protocol_name} under {self.model_name}: {state} "
            f"({self.instances} instances, {self.executions} executions, "
            f"{self.exhaustive_instances} exhaustive, "
            f"max message {self.max_message_bits} bits{witnesses})"
        )


@dataclass(frozen=True)
class TaskOutcome:
    """What one :class:`~repro.runtime.plan.ExecutionTask` produced.

    ``report`` is present iff the task carried a checker; ``runs`` is
    present iff the task kept its raw :class:`RunResult` transcripts
    (verification sweeps drop them so workers only ship aggregates).

    The telemetry fields ride *beside* the result, never inside it:
    ``kernel_stats`` is the deterministic search-kernel snapshot
    (present whenever the cell touched the kernel, traced or not, and
    identical across backends), ``telemetry`` the timing payload
    (present only while tracing).  Both default to ``None`` so
    pre-telemetry constructions — and cells that observed nothing —
    stay byte-identical.
    """

    index: int
    report: Optional[VerificationReport]
    runs: Optional[tuple["RunResult", ...]]
    kernel_stats: Optional["KernelStats"] = None
    telemetry: Optional["TaskTelemetry"] = None
    #: Transposition rows this cell recorded or tightened, as raw
    #: ``(config_key, TableEntry)`` pairs for the persistent frontier
    #: store (:mod:`repro.campaigns.frontiers` owns the codec).  Only
    #: search cells executed with warm frontiers enabled carry them;
    #: ``None`` keeps every other outcome byte-identical.
    frontiers: Optional[tuple] = None


class ResultSink:
    """Streaming consumer of task outcomes, fed in task order."""

    def add(self, outcome: TaskOutcome) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class ListSink(ResultSink):
    """Collect every outcome (the default for raw sweeps)."""

    def __init__(self) -> None:
        self.outcomes: list[TaskOutcome] = []

    def add(self, outcome: TaskOutcome) -> None:
        self.outcomes.append(outcome)

    def result(self) -> list[TaskOutcome]:
        return self.outcomes


class StoreBackedSink(ResultSink):
    """Persist every outcome the moment a backend yields it, then
    delegate to an inner sink.

    ``store`` is duck-typed (``put_outcome(fingerprint, outcome,
    campaign=...)``) so the runtime layer stays independent of the
    concrete persistence layer (:class:`repro.campaigns.store.ResultStore`
    is the shipped implementation); ``fingerprints`` maps task index to
    the task's fingerprint.  Because the write happens inside ``add`` —
    i.e. in the driving process, in task order, as outcomes stream out
    of the backend — a killed sweep leaves every already-yielded outcome
    durable, which is what makes campaigns resumable.  Backends hold
    no state of their own: the store is only ever touched here.
    """

    def __init__(self, store: Any, fingerprints: "dict[int, str]",
                 inner: Optional[ResultSink] = None,
                 campaign: Optional[str] = None,
                 frontier_keys: "Optional[dict[int, str]]" = None) -> None:
        self.store = store
        self.fingerprints = dict(fingerprints)
        self.inner = inner if inner is not None else ListSink()
        self.campaign = campaign
        #: Task index → frontier cell key (``put_frontiers`` scope) for
        #: warm-frontier runs; ``None`` leaves frontier rows uncommitted.
        self.frontier_keys = (
            dict(frontier_keys) if frontier_keys is not None else None
        )

    def add(self, outcome: TaskOutcome) -> None:
        self.store.put_outcome(
            self.fingerprints[outcome.index], outcome, campaign=self.campaign
        )
        if self.frontier_keys is not None and outcome.frontiers:
            cell_key = self.frontier_keys.get(outcome.index)
            if cell_key is not None:
                self.store.put_frontiers(cell_key, outcome.frontiers)
        self.inner.add(outcome)

    def result(self) -> Any:
        return self.inner.result()


class KernelStatsSink(ResultSink):
    """Fold each outcome's deterministic kernel snapshot into an
    accumulator, then delegate.  Pure observation: the outcome passes
    through untouched, so wrapping any sink chain with this one cannot
    change what the chain computes."""

    def __init__(self, inner: ResultSink,
                 accumulator: "KernelAccumulator") -> None:
        self.inner = inner
        self.accumulator = accumulator

    def add(self, outcome: TaskOutcome) -> None:
        self.accumulator.add(outcome.kernel_stats)
        self.inner.add(outcome)

    def result(self) -> Any:
        return self.inner.result()


class ReportMergeSink(ResultSink):
    """Merge per-task verification reports into one."""

    def __init__(self, protocol_name: str, model_name: str) -> None:
        self.report = VerificationReport(protocol_name, model_name)

    def add(self, outcome: TaskOutcome) -> None:
        if outcome.report is None:
            raise ValueError(
                f"task {outcome.index} produced no report; build the plan "
                "with a checker to merge verification reports"
            )
        self.report.merge(outcome.report)

    def result(self) -> VerificationReport:
        return self.report
