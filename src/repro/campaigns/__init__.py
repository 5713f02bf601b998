"""Persistent, resumable, sharded stress campaigns.

The paper's worst-case claims only become interesting at scale — across
many (protocol × model × instance-family) cells, across PRs.  This
package is the durable layer under every sweep consumer:

* :mod:`~repro.campaigns.store` — :class:`ResultStore`, a SQLite store
  keyed by deterministic task fingerprints (plan cell + code-version
  salt) with exact report round-trips and JSONL witness blobs.
* :mod:`~repro.campaigns.runner` — :class:`Campaign`: a named spec of
  cells, sharded over any backend, resumable (fingerprint hits are
  served from the store; an unchanged re-run is a pure cache read), and
  :func:`run_plan_with_store` for opportunistic reuse from
  ``verify_protocol(..., store=...)``.
* :mod:`~repro.campaigns.trajectories` — per-family extremal witness
  series across campaign generations, diffable and renderable
  (``repro campaign report``, ``tools/bench_report.py --campaign``).

Architecture rule: the store is the **only** cross-process, cross-run
shared state, and only the driving process touches it — backends hold
no state of their own, which is what keeps every future sharding/distribution
backend compatible.
"""

from .frontiers import task_cell_key
from .runner import (
    Campaign,
    CampaignCell,
    CampaignResult,
    CampaignSpec,
    CellResult,
    quick_campaign,
    run_plan_with_store,
    warm_smoke_campaign,
)
from .store import ResultStore, code_version_salt, task_fingerprint
from .trajectories import (
    TrajectoryPoint,
    diff_generations,
    render_trajectories,
    trajectory_points,
)

__all__ = [
    "Campaign",
    "CampaignCell",
    "CampaignResult",
    "CampaignSpec",
    "CellResult",
    "quick_campaign",
    "warm_smoke_campaign",
    "run_plan_with_store",
    "task_cell_key",
    "ResultStore",
    "code_version_salt",
    "task_fingerprint",
    "TrajectoryPoint",
    "diff_generations",
    "render_trajectories",
    "trajectory_points",
]
