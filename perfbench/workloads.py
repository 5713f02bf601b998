"""The benchmark's workloads: verdict-producing runs of ``repro``.

Every workload goes through the public API the way ``repro stress`` and
``repro campaign run`` do: census cells lowered to stress plans, run on
a :class:`~repro.runtime.ProcessPoolBackend` (``search``: the serial
backend), optionally through a :class:`~repro.campaigns.ResultStore`.  The workload seed picks the
instance seeds; the program only ever sees the generated graphs.

One *cell* (one census protocol on one instance family) is one
operation.  An operation fails when it raises, when it took longer
than :data:`CELL_TIMEOUT_S`, or when its verdict differs from the
reference: the expected-verdict record for the default seed, and the
first repetition's verdict for any other seed.  Protocol-level
failures (wrong outputs under faults, deadlocks) are verdicts, not
failed operations.

The time limit is checked once a cell has returned; nothing here
interrupts a cell that hangs.  Only the deadline of ``run.py`` bounds a
hang, and a run stopped by it prints no result.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

from repro.campaigns import Campaign, CampaignCell, CampaignSpec, ResultStore
from repro.campaigns.store import report_to_jsonable, witness_to_jsonable
from repro.core.execution import replay_schedule
from repro.core.models import MODELS_BY_NAME
from repro.faults.claims import claim_cells
from repro.protocols.census import CENSUS_BY_KEY
from repro.runtime import ProcessPoolBackend, SerialBackend
from repro.runtime.results import KernelStatsSink, ReportMergeSink
from repro.telemetry import KernelAccumulator

__all__ = [
    "DEFAULT_SEED",
    "CELL_TIMEOUT_S",
    "WORKLOADS",
    "CellOutcome",
    "Rep",
    "verdict_record",
    "failures",
    "Verdicts",
]

DEFAULT_SEED = 0
#: A cell that took longer than this counts as a failed operation.  A
#: plan cell is timed from the previous cell's last outcome; the cells
#: of a campaign run share the time of the whole run.
CELL_TIMEOUT_S = 60.0
#: A cached-campaign sample repeats unchanged re-runs until it lasts
#: this long, so one sample is long enough to time within a tenth.
CACHED_SAMPLE_S = 0.5
#: Expected-verdict records for :data:`DEFAULT_SEED`.
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass
class CellOutcome:
    """One operation: a cell's merged report, or the error it raised."""

    name: str
    report: Any
    error: Optional[str]
    seconds: float


@dataclass
class Rep:
    """One timed repetition of a workload."""

    seconds: float
    cells: list[CellOutcome]
    kernel: Any  # folded KernelStats, or None


def verdict_record(report) -> dict:
    """What a verdict is compared on: the report summary, and each
    witness's strategy, size, bits, deadlock flag and minimal schedule."""
    return {
        "summary": report.summary(),
        "witnesses": [
            [w.strategy, w.graph.n, w.bits, w.deadlock,
             None if w.minimal_schedule is None else list(w.minimal_schedule)]
            for w in report.witnesses
        ],
    }


def report_bytes(report) -> bytes:
    """The full report as canonical JSON, for byte-identity checks."""
    lines = [json.dumps(report_to_jsonable(report), sort_keys=True)]
    lines += [json.dumps(witness_to_jsonable(w), sort_keys=True)
              for w in report.witnesses]
    return "\n".join(lines).encode()


def failures(cells: list[CellOutcome], reference: dict,
             problems: dict[str, str]) -> dict[str, str]:
    """Failed operations among ``cells``, by cell name, with the reason.

    ``reference`` maps cell names to verdict records; ``problems`` are
    cells a workload check already flagged.
    """
    failed = {}
    for cell in cells:
        if cell.error is not None:
            failed[cell.name] = cell.error
        elif cell.seconds > CELL_TIMEOUT_S:
            failed[cell.name] = f"took {cell.seconds:.1f} s"
        elif verdict_record(cell.report) != reference.get(cell.name):
            failed[cell.name] = "verdict differs from the reference"
        elif cell.name in problems:
            failed[cell.name] = problems[cell.name]
    return failed


class Verdicts:
    """Failure accounting over the repetitions of one run.

    ``reference`` is the expected-verdict record (cell name -> verdict
    record); ``None`` takes the first repetition's verdicts instead.
    """

    def __init__(self, workload: "Workload",
                 reference: Optional[dict] = None) -> None:
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: Optional[Rep] = None

    def add(self, rep: Rep) -> None:
        first = self.first is None
        if first:
            self.first = rep
            if self.reference is None:
                self.reference = {c.name: verdict_record(c.report)
                                  for c in rep.cells if c.report is not None}
        failed = failures(rep.cells, self.reference,
                          self.workload.check(rep, first))
        self.attempted += len(rep.cells)
        self.failed += len(failed)
        self.errors += [f"{name}: {reason}" for name, reason in failed.items()]


def witness_problem(cell: CellOutcome) -> Optional[str]:
    """Replay every witness of a cell's report; the first one that does
    not reproduce its recorded bits and deadlock flag, if any."""
    entry = CENSUS_BY_KEY[cell.name.split("/")[0]]
    for w in cell.report.witnesses:
        result = replay_schedule(w.graph, entry.instantiate(),
                                 MODELS_BY_NAME[w.model_name], w.schedule,
                                 faults=w.faults)
        if (result.max_message_bits, result.corrupted) != (w.bits, w.deadlock):
            return (f"{w.strategy} witness replays to "
                    f"{result.max_message_bits} bits, "
                    f"deadlock={result.corrupted}")
    return None


def _instance_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1_000_000) for _ in range(count)]


def _name(cell: CampaignCell) -> str:
    sizes = ",".join(map(str, cell.sizes))
    faults = f"/{cell.faults}" if cell.faults else ""
    return f"{cell.protocol_key}/{cell.family}/n{sizes}{faults}"


class Workload:
    """A fixed plan of cells, derived from the workload seed.

    ``prepare`` does untimed set-up, ``rep`` runs one timed repetition.
    ``wrap`` is applied to the timed callable; a traced run installs
    its root span there and sets ``traced``.
    """

    name = ""
    uses_store = False

    def __init__(self, seed: int, jobs: int, workdir: Path) -> None:
        self.seed = seed
        self.jobs = jobs
        self.workdir = Path(workdir)
        self.wrap: Callable[[Callable], Callable] = lambda fn: fn
        self.traced = False

    # -- set-up (what the setup probe times) ---------------------------

    def backend(self):
        return ProcessPoolBackend(jobs=self.jobs)

    def build_plans(self) -> None:
        raise NotImplementedError

    def cells(self) -> list[CampaignCell]:
        raise NotImplementedError

    def prepare(self) -> None:
        self.build_plans()

    def rep(self) -> Rep:
        raise NotImplementedError

    def check(self, rep: Rep, first: bool) -> dict[str, str]:
        """Cells that break an invariant, with the reason.  Witness
        replay runs on the first repetition only: later ones must match
        its verdicts anyway."""
        problems = {}
        for cell in rep.cells if first else ():
            if cell.error is None:
                problem = witness_problem(cell)
                if problem is not None:
                    problems[cell.name] = problem
        return problems

    def work(self, rep: Rep) -> dict:
        """The fixed work of one repetition (a check, not a metric)."""
        reports = [c.report for c in rep.cells if c.report is not None]
        return {
            "cells": len(rep.cells),
            "tasks": sum(r.instances for r in reports),
            "schedules": sum(r.executions for r in reports),
            "kernel_steps": rep.kernel.steps if rep.kernel else 0,
            "witnesses": sum(len(r.witnesses) for r in reports),
        }


class _PlanWorkload(Workload):
    """Stress plans run straight on a backend, with no store (the
    ``repro stress`` path)."""

    threshold = 5

    def build_plans(self) -> None:
        self.plans = [
            (_name(cell), cell.build_plan("stress", self.threshold,
                                          faults=cell.faults))
            for cell in self.cells()
        ]
        # One submission of every cell's tasks, re-indexed in cell
        # order: the backend may overlap cells, and outcomes still
        # stream back in task order.
        self.tasks = [
            replace(task, index=i)
            for i, task in enumerate(
                task for _, plan in self.plans for task in plan.tasks)
        ]
        self.runner = self.backend()

    def rep(self) -> Rep:
        kernel = KernelAccumulator()

        def run_cells() -> list[CellOutcome]:
            last = perf_counter()
            outcomes = []
            stream = iter(self.runner.run(self.tasks))
            try:
                for name, plan in self.plans:
                    sink = KernelStatsSink(
                        ReportMergeSink("+".join(plan.protocol_names),
                                        "+".join(plan.model_names)), kernel)
                    for _ in plan.tasks:
                        sink.add(next(stream))
                    done = perf_counter()
                    outcomes.append(CellOutcome(name, sink.result(), None,
                                                done - last))
                    last = done
            except Exception as exc:  # noqa: BLE001 - failed operations
                error = f"{type(exc).__name__}: {exc}"
                outcomes += [CellOutcome(name, None, error,
                                         perf_counter() - last)
                             for name, _ in self.plans[len(outcomes):]]
            return outcomes

        run = self.wrap(run_cells)
        start = perf_counter()
        outcomes = run()
        return Rep(perf_counter() - start, outcomes, kernel.kernel)


class Exhaustive(_PlanWorkload):
    name = "exhaustive"
    threshold = 8

    def cells(self) -> list[CampaignCell]:
        big, faulted = _instance_seeds(self.seed, 2)
        return [
            CampaignCell("build-degenerate", "degenerate2", (8,), (big,)),
            CampaignCell("build-degenerate", "degenerate2", (6,), (faulted,),
                         faults="crash:1,loss:1"),
        ]


class Search(_PlanWorkload):
    name = "search"

    def backend(self):
        return SerialBackend()

    def cells(self) -> list[CampaignCell]:
        seeds = _instance_seeds(self.seed, 6)
        return [
            CampaignCell(key, family, (n,), (s,))
            for (key, family, n), s in zip((
                # Budget-bound: bnb spends 3 x 5000 steps and deadlock
                # DFS 5000.  The cost of a step depends on the graph, so
                # the SYNC cells run on the one two-cliques graph of
                # their size; rooted MIS does the same work on every
                # random graph tried.
                ("mis-greedy", "all", 9),
                ("two-cliques", "two-cliques-promise", 10),
                ("bfs-sync", "two-cliques-yes", 12),
                ("connectivity-sync", "two-cliques-yes", 12),
                # Contrast: every strategy finishes in tens of ms.
                ("eob-bfs", "even-odd-bipartite", 7),
                ("build-degenerate", "degenerate2", 11),
            ), seeds)
        ]


class _CampaignWorkload(Workload):
    """A census campaign against a SQLite store on 2 pool workers (the
    ``repro campaign run --warm-frontiers`` path)."""

    uses_store = True
    #: Instances per (cell, size) of the generic cells.
    instances = 3

    def cells(self) -> list[CampaignCell]:
        # Searched sizes stop where a search would use up its step
        # budget: a budget-bound search may return a different witness
        # when warm frontiers reorder it, and the warm report must be
        # byte-identical to the cold one.  rooted MIS at n=7 is such a
        # cell.
        generic = (
            ("build-degenerate", "degenerate2", (4, 5, 6, 7)),
            ("build-forest", "forests", (4, 5, 6, 7)),
            ("triangle-degenerate", "degenerate2", (4, 5, 6, 7)),
            ("eob-bfs", "even-odd-bipartite", (4, 5, 6, 7)),
            ("mis-greedy", "all", (4, 5, 6)),
            ("bfs-sync", "all", (4, 5, 6, 7)),
            ("connectivity-sync", "all", (4, 5, 6, 7)),
        )
        seeds = iter(_instance_seeds(self.seed, len(generic) + 8))
        cells = [
            CampaignCell(key, family, sizes,
                         tuple(_instance_seeds(next(seeds), self.instances)))
            for key, family, sizes in generic
        ]
        cells.append(CampaignCell("two-cliques", "two-cliques-promise",
                                  (4, 6), (next(seeds),)))
        cells.append(CampaignCell("bfs-bipartite-async", "odd-cycle-probe",
                                  (5, 7), (next(seeds),),
                                  allow_deadlock=True))
        for cell in claim_cells():
            cells.append(replace(cell, seeds=tuple(
                _instance_seeds(next(seeds), len(cell.seeds)))))
        return cells

    def spec(self) -> CampaignSpec:
        return CampaignSpec(name="perfbench", cells=tuple(self.cells()),
                            mode="stress", exhaustive_threshold=5)

    def build_plans(self) -> None:
        self.campaign = Campaign(self.spec())
        self.plans = list(self.campaign.spec.plans())
        self.runner = self.backend()

    def open_store(self, label: str, template: Optional[Path] = None):
        path = self.workdir / f"{label}.sqlite"
        path.unlink(missing_ok=True)
        if template is not None:
            shutil.copyfile(template, path)
        return ResultStore(path)

    def run_campaign(self, store) -> tuple[list[CellOutcome], Any]:
        """One campaign run; every cell fails together if it raises."""
        start = perf_counter()
        try:
            result = self.campaign.run(store, backend=self.runner,
                                       warm_frontiers=True)
        except Exception as exc:  # noqa: BLE001 - failed operations
            seconds = perf_counter() - start
            error = f"{type(exc).__name__}: {exc}"
            return [CellOutcome(_name(c), None, error, seconds)
                    for c in self.campaign.spec.cells], None
        seconds = perf_counter() - start
        return [CellOutcome(_name(c.cell), c.report, None, seconds)
                for c in result.cells], result.kernel

    def timed_campaign(self, store) -> Rep:
        run = self.wrap(lambda: self.run_campaign(store))
        start = perf_counter()
        cells, kernel = run()
        return Rep(perf_counter() - start, cells, kernel)

    def work(self, rep: Rep) -> dict:
        work = super().work(rep)
        work["tasks"] = sum(len(plan) for _, plan in self.plans)
        return work


class CampaignCold(_CampaignWorkload):
    name = "campaign"

    def rep(self) -> Rep:
        store = self.open_store("cold")
        try:
            return self.timed_campaign(store)
        finally:
            store.close()


class _Rerun(_CampaignWorkload):
    """A re-run of the campaign against the store one untimed cold run
    filled; every report must be byte-identical to the cold run's."""

    def prepare(self) -> None:
        super().prepare()
        self.template = self.workdir / "template.sqlite"
        store = self.open_store("template")
        try:
            cells, _ = self.run_campaign(store)
        finally:
            store.close()
        self.cold = {c.name: report_bytes(c.report) for c in cells
                     if c.report is not None}

    def check(self, rep: Rep, first: bool) -> dict[str, str]:
        problems = super().check(rep, first)
        for cell in rep.cells:
            if (cell.report is not None
                    and report_bytes(cell.report) != self.cold.get(cell.name)):
                problems[cell.name] = "report differs from the cold run"
        return problems


class CampaignCached(_Rerun):
    name = "campaign-cached"

    def rep(self) -> Rep:
        """One sample: unchanged re-runs against a copy of the cold
        store until :data:`CACHED_SAMPLE_S` has passed; ``seconds`` is
        the mean time of one re-run.  A traced sample is one re-run, so
        its ledger covers exactly one."""
        budget = 0.0 if self.traced else CACHED_SAMPLE_S
        store = self.open_store("cached", template=self.template)
        try:
            passes = [self.timed_campaign(store)]
            while sum(p.seconds for p in passes) < budget:
                passes.append(self.timed_campaign(store))
        finally:
            store.close()
        first = passes[0]
        mismatched = [p for p in passes[1:]
                      if [verdict_record(c.report) if c.report else c.error
                          for c in p.cells]
                      != [verdict_record(c.report) if c.report else c.error
                          for c in first.cells]]
        cells = first.cells if not mismatched else mismatched[0].cells
        return Rep(statistics.fmean(p.seconds for p in passes), cells,
                   first.kernel)


class CampaignWarm(_Rerun):
    name = "campaign-warm"

    def rep(self) -> Rep:
        store = self.open_store("warm", template=self.template)
        try:
            store.gc([])
            return self.timed_campaign(store)
        finally:
            store.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (Exhaustive, Search, CampaignCold, CampaignCached, CampaignWarm)
}


def expected_for(workload: str) -> dict:
    """Default-seed records; the three campaign workloads share one."""
    key = "campaign" if workload.startswith("campaign") else workload
    return json.loads(EXPECTED_PATH.read_text())[key]
