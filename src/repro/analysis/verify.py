"""Verification harness: run a protocol over instances × adversaries and
check every output against an oracle.

The paper's positive results are universally quantified over adversaries;
the harness approximates that with

* **exhaustive** schedule enumeration when the instance is small enough
  (``n <= exhaustive_threshold``), which makes the check a proof for
  those instances, and
* above the threshold, either a **portfolio** of structured +
  seeded-random schedulers (``mode="verify"``, the default) or **guided
  adversary search** (``mode="stress"``), where the strategies in
  :mod:`repro.adversaries` hunt for worst-case schedules and every cell
  reports concrete, replayable witness schedules in
  ``VerificationReport.witnesses``.

Alongside correctness it records exact message-size statistics so the
``O(log n)`` / ``O(k^2 log n)`` claims are measured by the same runs
that establish correctness.

Since the unified execution runtime landed this module is a thin policy
layer: :func:`verify_protocol` builds a ``verify``-mode
:class:`~repro.runtime.plan.ExecutionPlan` and runs it on a
:class:`~repro.runtime.backends.Backend` (serial by default; pass a
:class:`~repro.runtime.backends.ProcessPoolBackend` to fan instances
across processes — then the checker and schedulers must be picklable).
:class:`VerificationReport` and :class:`Failure` now live in
:mod:`repro.runtime.results` and are re-exported here unchanged.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import Optional

from ..adversaries import AdversarySearch
from ..core.models import ModelSpec
from ..core.protocol import Protocol
from ..core.schedulers import Scheduler
from ..graphs.labeled_graph import LabeledGraph
from ..runtime.backends import Backend
from ..runtime.plan import Checker, ExecutionPlan
from ..runtime.results import Failure, VerificationReport, WitnessRecord

__all__ = [
    "Failure",
    "VerificationReport",
    "WitnessRecord",
    "verify_protocol",
    "Checker",
]


def verify_protocol(
    protocol: Protocol,
    model: ModelSpec,
    instances: Iterable[LabeledGraph],
    checker: Checker,
    schedulers: Optional[Sequence[Scheduler]] = None,
    exhaustive_threshold: int = 5,
    bit_budget: Optional[Callable[[int], int]] = None,
    allow_deadlock: bool = False,
    backend: Optional[Backend] = None,
    mode: str = "verify",
    adversaries: Optional[Sequence[AdversarySearch]] = None,
    store=None,
    score: Optional[str] = None,
    faults: Optional[str] = None,
) -> VerificationReport:
    """Sweep ``protocol`` under ``model`` over ``instances``.

    Parameters
    ----------
    checker:
        Output oracle; called only on successful executions.
    exhaustive_threshold:
        Instances with ``n`` at most this are checked under *every*
        adversary schedule.
    bit_budget:
        Optional ``n -> bits`` cap enforced during simulation.
    allow_deadlock:
        When ``True`` deadlocks are not failures (used for the
        open-problem measurements, e.g. Corollary 4 on odd cycles).
    backend:
        Execution backend for the per-instance cells; ``None`` means
        serial.  Any backend yields a field-identical report.
    mode:
        ``"verify"`` (scheduler portfolio above the threshold) or
        ``"stress"`` (adversary search above the threshold, witness
        schedules reported in ``VerificationReport.witnesses``).
    adversaries:
        Search strategies for stress mode; defaults to
        :func:`repro.adversaries.default_search_portfolio`.
    score:
        Stress mode only: name of a
        :data:`repro.adversaries.SCORE_HOOKS` badness hook baked into
        the default portfolio's greedy/beam policies.
    faults:
        Optional fault-budget spec (``"crash:2,loss:1"``); stress mode
        only — exhaustive cells then enumerate the joint fault ×
        schedule space and search cells hunt it with fault-choosing
        adversaries.  Witnesses record their fault events inline.
    store:
        Optional :class:`repro.campaigns.store.ResultStore` for
        opportunistic reuse: cells whose fingerprint is already stored
        are served from the store (field-identical to recomputing),
        everything executed here becomes a future hit.  The merged
        report is identical with or without a store.
    """
    if mode not in ("verify", "stress"):
        raise ValueError(
            f"verify_protocol mode must be 'verify' or 'stress', got {mode!r}"
        )
    plan = ExecutionPlan.build(
        protocol,
        model,
        instances,
        mode=mode,
        schedulers=schedulers,
        adversaries=adversaries,
        checker=checker,
        exhaustive_threshold=exhaustive_threshold,
        bit_budget=bit_budget,
        allow_deadlock=allow_deadlock,
        score=score,
        faults=faults,
    )
    if store is not None:
        from ..campaigns.runner import run_plan_with_store

        return run_plan_with_store(plan, store, backend=backend)
    return plan.verification_report(backend=backend)
