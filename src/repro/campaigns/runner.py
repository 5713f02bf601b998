"""Campaigns: named, persistent, resumable, sharded stress sweeps.

A :class:`CampaignSpec` names a set of **cells** — instance family ×
census protocol (its model and checker come from the registries) — and a
plan mode (``stress`` by default: exhaustive below the threshold, guided
adversary search above).  :class:`Campaign` lowers every cell to a
:class:`~repro.runtime.plan.ExecutionPlan`, fingerprints each task, and
executes **only the store misses** on any
:class:`~repro.runtime.backends.Backend` — the backend shards self-contained
tasks exactly as before; the :class:`~repro.campaigns.store.ResultStore`
is the only shared state, touched only by the driving process through a
:class:`~repro.runtime.results.StoreBackedSink`.

The three guarantees campaigns are built around (pinned by
``tests/campaigns/``):

* **resume** — every executed outcome is committed the moment the
  backend yields it, in campaign task order, so a killed ``campaign
  run`` restarts where it died and finishes with the same merged
  report.  A run is one backend submission: the misses of every cell
  stream through one ``backend.run`` (one pool, one reorder buffer).  A
  cell that repeats the fingerprint or warm-frontier cell key of a miss
  still waiting in the submission starts a new one, so it sees that
  miss committed exactly as a cell-by-cell run would.  Warm frontiers
  are loaded for every miss before its submission; they never change a
  fingerprint, but they can change the witness of a search that uses up
  its step budget, so such a verdict depends on the store's history;
* **purity** — an unchanged re-run executes zero tasks (every
  fingerprint hits) and produces a field-identical report;
* **trajectory** — each completed run appends one deterministic
  generation of extremal witnesses per (protocol, model, family, n)
  (see :mod:`repro.campaigns.trajectories`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

from ..analysis.checkers import default_checker
from ..core.models import MODELS_BY_NAME
from ..faults.spec import resolve_faults
from ..graphs.families import FAMILIES, FAMILY_ALIASES, family
from ..protocols.census import CENSUS_BY_KEY
from ..runtime.backends import Backend, SerialBackend
from ..runtime.plan import ExecutionPlan, ExecutionTask
from ..runtime.results import (
    KernelStatsSink,
    ListSink,
    ResultSink,
    StoreBackedSink,
    VerificationReport,
)
from ..telemetry import KernelAccumulator, KernelStats, RunTelemetry
from .frontiers import task_cell_key
from .store import ResultStore
from .trajectories import record_generation

__all__ = [
    "CampaignCell",
    "CampaignSpec",
    "CellResult",
    "CampaignResult",
    "Campaign",
    "quick_campaign",
    "warm_smoke_campaign",
    "run_plan_with_store",
]


@dataclass(frozen=True)
class CampaignCell:
    """One (census protocol × instance family) block of a campaign.

    ``family`` may name an alias from
    :data:`~repro.graphs.families.FAMILY_ALIASES`; it is stored as the
    registered name, so both spellings are one cell.
    """

    protocol_key: str
    family: str
    sizes: tuple[int, ...]
    seeds: tuple[int, ...]
    #: Deadlocks count as executions, not failures — the Corollary 4
    #: setting, where deadlock witnesses *are* the measurement.
    allow_deadlock: bool = False
    #: Canonical fault-budget string (``"crash:1,loss:1"``); ``None``
    #: falls back to the spec-level default.  Requires stress mode.
    faults: Optional[str] = None

    def __post_init__(self) -> None:
        if self.protocol_key not in CENSUS_BY_KEY:
            known = ", ".join(sorted(CENSUS_BY_KEY))
            raise ValueError(
                f"unknown census protocol {self.protocol_key!r}; known: {known}"
            )
        canonical = FAMILY_ALIASES.get(self.family, self.family)
        if canonical not in FAMILIES:
            known = ", ".join(sorted(FAMILIES))
            raise ValueError(
                f"unknown instance family {self.family!r}; known: {known}"
            )
        object.__setattr__(self, "family", canonical)
        if self.faults is not None:
            # Normalise eagerly so equal budgets always fingerprint
            # identically, and typos fail at spec construction.
            object.__setattr__(
                self, "faults", resolve_faults(self.faults).canonical()
            )

    def instances(self):
        """One instance per (size × seed), duplicates dropped.

        Seed-invariant families (e.g. odd cycles) collapse to one
        instance per size.  A size the family cannot sample (odd cycles
        at even ``n``, two-cliques at odd ``n``) raises a
        :class:`ValueError` naming the cell and the size, so the caller
        sees which spec line to fix instead of a bare generator
        traceback.
        """
        cls = family(self.family)
        built = []
        for n in self.sizes:
            for seed in self.seeds:
                try:
                    built.append(cls.sample_in_class(n, seed))
                except ValueError as exc:
                    raise ValueError(
                        f"cell {self.protocol_key} x {self.family}: "
                        f"size {n} is invalid for this family ({exc})"
                    ) from exc
        return [g for i, g in enumerate(built) if g not in built[:i]]

    def build_plan(self, mode: str, exhaustive_threshold: int,
                   score: Optional[str] = None,
                   faults: Optional[str] = None) -> ExecutionPlan:
        entry = CENSUS_BY_KEY[self.protocol_key]
        return ExecutionPlan.build(
            entry.instantiate(),
            MODELS_BY_NAME[entry.model],
            self.instances(),
            mode=mode,
            checker=default_checker(self.protocol_key),
            exhaustive_threshold=exhaustive_threshold,
            allow_deadlock=self.allow_deadlock,
            keep_runs=False,
            score=score if mode == "stress" else None,
            faults=faults,
        )


@dataclass(frozen=True)
class CampaignSpec:
    """The durable identity of a campaign: name + cells + policy.

    ``score`` is the search-kernel knob (primitive, so it participates
    in every search cell's fingerprint): a campaign run with a
    different badness hook is different durable work.
    """

    name: str
    cells: tuple[CampaignCell, ...]
    mode: str = "stress"
    exhaustive_threshold: int = 5
    score: Optional[str] = None
    #: Spec-level default fault budget; cells override with their own
    #: ``faults`` (``None`` on a cell means "inherit this").
    faults: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in ("verify", "stress"):
            raise ValueError(
                f"campaign mode must be 'verify' or 'stress', got {self.mode!r}"
            )
        if not self.cells:
            raise ValueError("a campaign needs at least one cell")
        if self.score is not None and self.mode != "stress":
            raise ValueError(
                "score is a search-kernel knob; it only applies to "
                "stress campaigns"
            )
        if self.faults is not None:
            object.__setattr__(
                self, "faults", resolve_faults(self.faults).canonical()
            )
        if self.mode != "stress" and (
            self.faults is not None
            or any(cell.faults is not None for cell in self.cells)
        ):
            raise ValueError(
                "fault budgets only apply to stress campaigns"
            )

    def cell_faults(self, cell: CampaignCell) -> Optional[str]:
        """The effective fault budget for ``cell`` (cell overrides spec)."""
        return cell.faults if cell.faults is not None else self.faults

    def plans(self) -> Iterator[tuple[CampaignCell, ExecutionPlan]]:
        """Each cell lowered to its execution plan, in spec order."""
        for cell in self.cells:
            yield cell, cell.build_plan(
                self.mode, self.exhaustive_threshold,
                score=self.score,
                faults=self.cell_faults(cell),
            )


@dataclass
class CellResult:
    """One cell's merged report plus its cache accounting."""

    cell: CampaignCell
    report: VerificationReport
    tasks: int
    hits: int

    @property
    def executed(self) -> int:
        return self.tasks - self.hits


@dataclass
class CampaignResult:
    """Everything one :meth:`Campaign.run` produced."""

    name: str
    generation: int
    report: VerificationReport
    cells: list[CellResult] = field(default_factory=list)
    #: Folded deterministic kernel snapshot of the tasks *executed* this
    #: run (``None`` when everything was served from the store).
    #: Observation-only — defaulted so older constructions still work.
    kernel: Optional[KernelStats] = None

    @property
    def tasks(self) -> int:
        return sum(c.tasks for c in self.cells)

    @property
    def hits(self) -> int:
        return sum(c.hits for c in self.cells)

    @property
    def executed(self) -> int:
        return sum(c.executed for c in self.cells)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.tasks if self.tasks else 1.0

    @property
    def ok(self) -> bool:
        return self.report.ok

    def summary(self) -> str:
        return (
            f"campaign {self.name!r} generation {self.generation}: "
            f"{self.tasks} tasks, {self.hits} store hits, "
            f"{self.executed} executed "
            f"({self.hit_rate:.0%} cached) — {self.report.summary()}"
        )


def _run_cells_with_store(
    cells: Sequence[Sequence[ExecutionTask]],
    store: Optional[ResultStore],
    backend: Optional[Backend] = None,
    campaign: Optional[str] = None,
    telemetry: Optional[RunTelemetry] = None,
    kernel: Optional[KernelAccumulator] = None,
    warm_frontiers: bool = False,
) -> list[tuple[list[VerificationReport], int]]:
    """Execute each cell's tasks through ``store``: hits are
    deserialized, and the misses of every cell run in one
    ``backend.run`` whose outcomes are committed as they stream.
    Returns, per cell, its reports *in task order* plus its hit count.
    Without a ``store`` every task is a miss: nothing is fingerprinted
    or committed, and every hit count is 0.

    Tasks are numbered campaign-wide (cell after cell); a miss whose
    ``index`` differs from its number is re-indexed, so the task
    ``index`` stays the ordering authority and hits build no new task.
    A cell that repeats the fingerprint or frontier cell key of a miss
    already waiting in the submission first runs that submission, so
    the cell sees those outcomes committed, as a cell-by-cell run
    would: reports and hit counts do not depend on the grouping.

    ``telemetry``/``kernel`` are pure observers layered over the sink
    chain (store commit first, then stats fold, then trace line) — the
    reports are field-identical with or without them.

    ``warm_frontiers`` seeds every executed search cell's transposition
    table from the store's persistent frontiers (current-salt rows for
    the cell's exact scope, loaded just before the submission) and
    commits the cell's dirty rows back, parent-side, the moment its
    outcome streams out.  Fingerprints never see it, so the hit/miss
    split is identical with the knob on or off.  A search that finishes
    within its step budget returns the same witness warm or cold; a
    budget-bound one may return a different witness, because warm
    entries change which nodes the budget reaches.
    """
    if store is None and warm_frontiers:
        raise ValueError("warm frontiers are loaded from a store")
    backend = backend if backend is not None else SerialBackend()
    reports: dict[int, VerificationReport] = {}
    fingerprints: dict[int, str] = {}
    frontier_keys: Optional[dict[int, str]] = {} if warm_frontiers else None
    misses: list[tuple[int, ExecutionTask]] = []

    def submit() -> None:
        tasks = []
        for i, task in misses:
            changes: dict = {} if task.index == i else {"index": i}
            cell_key = frontier_keys.get(i) if frontier_keys else None
            if cell_key is not None:
                changes["frontiers"] = tuple(store.load_frontiers(cell_key))
            tasks.append(replace(task, **changes) if changes else task)
        misses.clear()
        if not tasks:
            return
        sink: ResultSink = ListSink() if store is None else StoreBackedSink(
            store, fingerprints, campaign=campaign, frontier_keys=frontier_keys
        )
        inner = sink
        if kernel is not None:
            sink = KernelStatsSink(sink, kernel)
        if telemetry is not None:
            sink = telemetry.sink(sink)
        # Drive the backend one outcome at a time: each add() commits
        # before the next outcome is awaited, which is the kill-resume
        # guarantee.
        for outcome in backend.run(tasks):
            sink.add(outcome)
        reports.update((o.index, o.report) for o in inner.result())

    layout: list[tuple[int, int, int]] = []
    index = 0
    for cell_tasks in cells:
        if store is None:
            misses.extend(enumerate(cell_tasks, index))
            layout.append((index, index + len(cell_tasks), 0))
            index += len(cell_tasks)
            continue
        prints = [store.fingerprint(task) for task in cell_tasks]
        if not {fingerprints[i] for i, _ in misses}.isdisjoint(prints):
            submit()
        start, hits = index, 0
        cell_misses = []
        for task, fingerprint in zip(cell_tasks, prints):
            report = store.get(fingerprint)
            if report is None:
                fingerprints[index] = fingerprint
                cell_misses.append((index, task))
            else:
                reports[index] = report
                hits += 1
                if telemetry is not None:
                    telemetry.record_hit(index, fingerprint)
            index += 1
        if frontier_keys is not None:
            keys = {i: task_cell_key(task) for i, task in cell_misses
                    if task.mode == "search"}
            waiting = {frontier_keys.get(i) for i, _ in misses}
            if not waiting.isdisjoint(keys.values()):
                submit()
            frontier_keys.update(keys)
        misses.extend(cell_misses)
        layout.append((start, index, hits))
    submit()
    return [([reports[i] for i in range(start, stop)], hits)
            for start, stop, hits in layout]


def run_plan_with_store(
    plan: ExecutionPlan,
    store: ResultStore,
    backend: Optional[Backend] = None,
    campaign: Optional[str] = None,
    telemetry: Optional[RunTelemetry] = None,
    kernel: Optional[KernelAccumulator] = None,
    warm_frontiers: bool = False,
) -> VerificationReport:
    """Opportunistic store reuse for any checker-carrying plan.

    This is what ``verify_protocol(..., store=...)`` calls: the merged
    report is field-identical to ``plan.verification_report`` — hits are
    exact round-trips, misses execute normally — and every executed
    task becomes a future hit.
    """
    [(reports, _)] = _run_cells_with_store(
        [plan.tasks], store, backend=backend, campaign=campaign,
        telemetry=telemetry, kernel=kernel, warm_frontiers=warm_frontiers,
    )
    return plan.merge_reports(reports)


class Campaign:
    """A runnable campaign: spec + the run/resume/report machinery."""

    def __init__(self, spec: CampaignSpec) -> None:
        self.spec = spec

    def live_fingerprints(self, store: ResultStore) -> set[str]:
        """Fingerprints of every task the spec currently enumerates —
        the liveness set ``campaign gc`` keeps."""
        return {
            store.fingerprint(task)
            for _, plan in self.spec.plans()
            for task in plan.tasks
        }

    def live_frontier_cell_keys(self) -> set[str]:
        """Frontier cell keys of every search cell the spec currently
        enumerates — the liveness set ``gc_frontiers`` keeps.  Salt-free
        on purpose: stale-salt rows are swept by ``gc_frontiers``
        itself, since no future run can serve them."""
        return {
            task_cell_key(task)
            for _, plan in self.spec.plans()
            for task in plan.tasks
            if task.mode == "search"
        }

    def run(
        self,
        store: ResultStore,
        backend: Optional[Backend] = None,
        telemetry: Optional[RunTelemetry] = None,
        warm_frontiers: bool = False,
    ) -> CampaignResult:
        """Run (or resume, or replay from cache) the whole campaign.

        Cells execute in spec order, tasks in plan order, as one backend
        submission (see :func:`_run_cells_with_store`); the merged
        report folds per-task reports in exactly that order, so any
        backend — and any hit/miss split — produces the identical
        result.  Completing the run appends one trajectory generation
        and (when any task executed) records the run's folded kernel
        snapshot in the store's meta table for ``campaign status``.
        """
        spec = self.spec
        plans = list(spec.plans())
        if telemetry is not None:
            for _, plan in plans:
                telemetry.add_plan(plan)
        kernel = KernelAccumulator()
        outcomes = _run_cells_with_store(
            [plan.tasks for _, plan in plans], store, backend=backend,
            campaign=spec.name, telemetry=telemetry, kernel=kernel,
            warm_frontiers=warm_frontiers,
        )
        overall = VerificationReport(spec.name, spec.mode)
        cell_results: list[CellResult] = []
        for (cell, plan), (reports, hits) in zip(plans, outcomes):
            merged = plan.merge_reports(reports)
            overall.merge(merged)
            cell_results.append(
                CellResult(cell, merged, tasks=len(plan.tasks), hits=hits)
            )
        generation = record_generation(
            store, spec, [(c.cell, c.report) for c in cell_results]
        )
        store.record_kernel_summary(spec.name, kernel.kernel)
        return CampaignResult(
            name=spec.name,
            generation=generation,
            report=overall,
            cells=cell_results,
            kernel=kernel.kernel,
        )


def quick_campaign(name: str = "quick") -> CampaignSpec:
    """The built-in smoke campaign (CLI ``campaign run --quick``, CI,
    experiment E20): one exhaustive BUILD cell (two seeded instances)
    plus the Corollary 4 odd-cycle cell whose interesting output is a
    deadlock witness."""
    return CampaignSpec(
        name=name,
        cells=(
            CampaignCell(
                protocol_key="build-degenerate",
                family="degenerate2",
                sizes=(4,),
                seeds=(0, 1),
            ),
            CampaignCell(
                protocol_key="bfs-bipartite-async",
                family="odd-cycle-probe",
                sizes=(5,),
                seeds=(0,),
                allow_deadlock=True,
            ),
        ),
        mode="stress",
        exhaustive_threshold=5,
    )


def warm_smoke_campaign(name: str = "warm-smoke") -> CampaignSpec:
    """The warm-frontier smoke campaign (CI, tests): one genuinely
    *searched* cell — an n=6 asynchronous EOB-BFS instance above the
    exhaustive threshold — so a ``--warm-frontiers`` run exercises the
    full store → preload → prune → export loop.  Small enough that
    every portfolio search completes within its step budget, which is
    the precondition for the warm run's merged report being
    byte-identical to the cold run's (see ROADMAP "Search kernel")."""
    return CampaignSpec(
        name=name,
        cells=(
            CampaignCell(
                protocol_key="bfs-bipartite-async",
                family="even-odd-bipartite",
                sizes=(6,),
                seeds=(0,),
            ),
        ),
        mode="stress",
        exhaustive_threshold=5,
    )
