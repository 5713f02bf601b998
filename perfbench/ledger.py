"""Per-layer ledger for the traced benchmark run.

Timing shims wrap the public functions of each layer of ``repro`` from
outside the package: nothing under ``src/`` changes.  Each shim pushes a
frame on a per-process stack, so a layer's *self* time is the time
inside its wrapped call minus the time spent in wrapped calls nested
under it.  The self times of one process therefore add up, without
double counting, to the time of the root span around the measured
region.

Shims are installed in the measuring process before the process pool
forks, so pool workers inherit them.  A worker cannot hand its numbers
back through the program's return values, so the shim around the
worker entry point (``repro.runtime.backends._apply_chunk``) writes one
JSON file per chunk into a spool directory, and the parent folds those
files into the ledger after the run.

:data:`PER_LAYER` is the list of metrics a traced run prints; it must
match ``per_layer`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import uuid
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

__all__ = ["PER_LAYER", "STRATEGIES", "Tracer", "install", "ledger_metrics"]

#: The four strategies of the default search portfolio.
STRATEGIES = ("greedy-bits", "beam", "branch-and-bound", "deadlock-dfs")

#: Every per-layer metric, in print order: ``(name, unit)``.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("cli.import_s", "s"),
    ("runtime.plan.build_s", "s"),
    ("campaigns.store.open_s", "s"),
    ("runtime.backends.start_s", "s"),
    ("runtime.backends.busy_s", "s"),
    ("runtime.backends.wait_s", "s"),
    ("runtime.task_p50_s", "s"),
    ("runtime.task_p90_s", "s"),
    ("runtime.task_samples", "count"),
    ("runtime.plan.execute_s", "s"),
    ("runtime.sharding.lots", "count"),
    ("runtime.sharding.imbalance", "ratio"),
    ("runtime.sharding.lower_s", "s"),
    ("runtime.sharding.reassemble_s", "s"),
    ("runtime.results.record_calls", "count"),
    ("runtime.results.record_s", "s"),
    ("core.advance_calls", "count"),
    ("core.advance_s", "s"),
    ("core.config_key_calls", "count"),
    ("core.config_key_s", "s"),
    ("core.result_calls", "count"),
    ("core.result_s", "s"),
    ("core.replay_calls", "count"),
    ("core.replay_s", "s"),
    ("core.kernel_steps", "count"),
    ("core.batch.occupancy", "ratio"),
    ("protocols.message_calls", "count"),
    ("protocols.message_s", "s"),
    ("protocols.output_calls", "count"),
    ("protocols.output_s", "s"),
    ("protocols.output_boards", "count"),
    ("protocols.output_reuse", "ratio"),
    ("analysis.checkers.calls", "count"),
    ("analysis.checkers.s", "s"),
    ("encoding.payload_bits_calls", "count"),
    ("encoding.payload_bits_s", "s"),
    ("encoding.payload_key_calls", "count"),
    ("encoding.payload_key_s", "s"),
    *(
        (f"adversaries.{strategy}.{field}", unit)
        for strategy in STRATEGIES
        for field, unit in (("s", "s"), ("explored", "count"),
                            ("budget_exhausted", "count"))
    ),
    ("adversaries.minimize_calls", "count"),
    ("adversaries.minimize_s", "s"),
    ("adversaries.table_hit_rate", "ratio"),
    ("adversaries.bound_prunes", "count"),
    ("adversaries.frontier_hits", "count"),
    ("campaigns.store.fingerprint_calls", "count"),
    ("campaigns.store.fingerprint_s", "s"),
    ("campaigns.store.get_calls", "count"),
    ("campaigns.store.get_s", "s"),
    ("campaigns.store.hit_rate", "ratio"),
    ("campaigns.store.put_calls", "count"),
    ("campaigns.store.put_s", "s"),
    ("campaigns.store.put_frontiers_calls", "count"),
    ("campaigns.store.put_frontiers_s", "s"),
    ("campaigns.store.load_frontiers_s", "s"),
    ("campaigns.store.frontier_rows", "count"),
    ("campaigns.trajectories.record_s", "s"),
    ("campaigns.cell.build_plan_calls", "count"),
    ("campaigns.cell.build_plan_s", "s"),
    ("ledger.parent_other_s", "s"),
    ("ledger.worker_other_s", "s"),
    ("ledger.bookkeeping_s", "s"),
    ("ledger.coverage", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
)

#: The parent's time inside the pool's result iterator; the ledger
#: splits it into worker busy time ÷ jobs plus ``wait_s``.
_BLOCKED = "runtime.backends.blocked"
#: Root spans: time inside the measured region, resp. inside a worker
#: chunk, that no narrower shim claimed.
PARENT_ROOT = "ledger.parent_other"
_WORKER_ROOT = "ledger.worker_other"
#: The shims' own work after a wrapped call (board digests); a span of
#: its own, so it is neither charged to a layer nor lost from the sum.
_BOOKKEEPING = "ledger.bookkeeping"


class Tracer:
    """Self time, call counts and counters of one process.

    ``spool`` is the directory pool workers write their per-chunk
    snapshots to; ``parent_pid`` tells the worker-entry shim whether it
    runs in a worker.
    """

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self.parent_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: One ``(kind, task index, seconds)`` per executed work item
        #: (a whole task or one shard lot).
        self.items: list[tuple[str, int, float]] = []
        #: Digests of the sorted ``payload_key`` multiset of every board
        #: handed to ``Protocol.output``.
        self.boards: set[int] = set()

    def _close(self, name: str, frame: list[float]) -> float:
        seconds = perf_counter() - frame[0]
        stack = self.stack
        stack.pop()
        self.self_s[name] += seconds - frame[1]
        self.calls[name] += 1
        if stack:
            stack[-1][1] += seconds
        return seconds

    def span(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a self-time frame named ``name``.

        ``after(args, result, seconds)`` runs once the frame is closed,
        charged to :data:`_BOOKKEEPING`.
        """

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self._close(name, frame)
            if after is not None:
                self._bookkeep(after, args, result, seconds)
            return result

        return shim

    def iter_span(self, name: str, gen_fn: Callable) -> Callable:
        """Generator function ``gen_fn`` wrapped so that only the time
        spent inside each ``next()`` counts, not the consumer's time
        between items."""

        @functools.wraps(gen_fn)
        def shim(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            try:
                while True:
                    frame = [perf_counter(), 0.0]
                    self.stack.append(frame)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, frame)
                    yield item
            finally:
                it.close()

        return shim

    def _bookkeep(self, after: Callable, args, result, seconds: float) -> None:
        start = perf_counter()
        after(args, result, seconds)
        spent = perf_counter() - start
        self.self_s[_BOOKKEEPING] += spent
        if self.stack:
            self.stack[-1][1] += spent

    def snapshot(self) -> dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "items": list(self.items),
            "boards": sorted(self.boards),
        }

    def worker_entry(self, fn: Callable) -> Callable:
        """Shim for the pool's chunk entry point: in a worker, start a
        fresh ledger, run the chunk under the worker root span and spool
        the snapshot; in the parent, call straight through."""
        timed = self.span(_WORKER_ROOT, fn)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if os.getpid() == self.parent_pid:
                return fn(*args, **kwargs)
            self.reset()
            result = timed(*args, **kwargs)
            path = self.spool / f"w{os.getpid()}-{uuid.uuid4().hex}.json"
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.snapshot()))
            tmp.replace(path)
            return result

        return shim

    def drain_workers(self) -> list[dict[str, Any]]:
        """Read and delete every spooled worker snapshot."""
        snapshots = []
        for path in sorted(self.spool.glob("w*.json")):
            snapshots.append(json.loads(path.read_text()))
            path.unlink()
        return snapshots


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the public functions of every layer; returns the undo.

    Module-level functions are replaced in every ``repro`` module that
    imported them by name, so call sites that bound the original see
    the shim too.
    """
    import repro.protocols.census  # noqa: F401 - loads every protocol class
    from repro.adversaries import (
        BeamSearchAdversary,
        BranchAndBoundAdversary,
        DeadlockAdversary,
        GreedyBitsAdversary,
    )
    from repro.adversaries import base as adv_base
    from repro.analysis import checkers
    from repro.campaigns import CampaignCell
    from repro.campaigns import store as store_mod
    from repro.campaigns import trajectories
    from repro.core import execution
    from repro.core.protocol import Protocol
    from repro.encoding import bits
    from repro.runtime import backends, plan, results, sharding

    patches: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, shim: Any) -> None:
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, shim)

    def patch_function(module: Any, attr: str, name: str) -> None:
        original = getattr(module, attr)
        shim = tracer.span(name, original)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, "__dict__", {}).get(attr) is original):
                patch(mod, attr, shim)

    def patch_method(cls: type, attr: str, name: str,
                     after: Optional[Callable] = None) -> None:
        patch(cls, attr, tracer.span(name, cls.__dict__[attr], after))

    # runtime: worker entry, pool wait, work items, sharding, results
    patch(backends, "_apply_chunk", tracer.worker_entry(backends._apply_chunk))
    patch(backends.ProcessPoolBackend, "map",
          tracer.iter_span(_BLOCKED, backends.ProcessPoolBackend.map))

    def item(kind: str) -> Callable:
        def after(args, result, seconds):
            tracer.items.append((kind, args[0].index, seconds))
        return after

    patch_method(plan.ExecutionTask, "execute", "runtime.task", item("task"))
    patch_method(plan.ExecutionTask, "_execute_shard", "runtime.shard",
                 item("shard"))
    patch_function(sharding, "lower", "runtime.sharding.lower")
    patch_method(plan.ExecutionTask, "_merge_shards",
                 "runtime.sharding.reassemble")
    patch_method(results.VerificationReport, "record", "runtime.results.record")

    # core engine
    state = execution.ExecutionState
    patch_method(state, "advance", "core.advance")
    patch_method(state, "config_key", "core.config_key")
    patch_method(state, "result", "core.result")
    patch_function(execution, "replay_schedule", "core.replay")

    # protocols: every concrete message/output implementation
    payload_key = bits.payload_key

    def board_digest(args, result, seconds):
        tracer.boards.add(hash(tuple(sorted(
            payload_key(p) for p in args[1].payloads))))

    pending = list(Protocol.__subclasses__())
    seen: set[type] = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        for attr, after in (("message", None), ("output", board_digest)):
            fn = cls.__dict__.get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                patch_method(cls, attr, f"protocols.{attr}", after)

    # analysis: output checkers
    for obj in list(vars(checkers).values()):
        if (isinstance(obj, type) and obj.__module__ == checkers.__name__
                and "__call__" in obj.__dict__):
            patch_method(obj, "__call__", "analysis.checkers")

    # encoding
    patch_function(bits, "payload_bits", "encoding.payload_bits")
    patch_function(bits, "payload_key", "encoding.payload_key")

    # adversaries: the four policies, minimisation
    def searched(strategy: str) -> Callable:
        def after(args, witness, seconds):
            tracer.counts[f"adversaries.{strategy}.explored"] += witness.explored
            max_steps = getattr(args[0], "max_steps", None)
            if max_steps is not None and witness.explored >= max_steps:
                tracer.counts[f"adversaries.{strategy}.budget_exhausted"] += 1
        return after

    for cls in (GreedyBitsAdversary, BeamSearchAdversary,
                BranchAndBoundAdversary, DeadlockAdversary):
        patch_method(cls, "search", f"adversaries.{cls.name}",
                     searched(cls.name))
    patch_function(adv_base, "minimize_schedule", "adversaries.minimize")

    # campaigns: plans rebuilt by every run, store I/O, fingerprints,
    # trajectories
    patch_method(CampaignCell, "build_plan", "campaigns.cell.build_plan")
    def got(args, report, seconds):
        tracer.counts["store.hits" if report is not None else "store.misses"] += 1

    def loaded(args, rows, seconds):
        tracer.counts["store.frontier_rows"] += len(rows)

    store_cls = store_mod.ResultStore
    patch_method(store_cls, "fingerprint", "campaigns.store.fingerprint")
    patch_method(store_cls, "get", "campaigns.store.get", got)
    patch_method(store_cls, "put", "campaigns.store.put")
    patch_method(store_cls, "put_frontiers", "campaigns.store.put_frontiers")
    patch_method(store_cls, "load_frontiers", "campaigns.store.load_frontiers",
                 loaded)
    patch_function(trajectories, "record_generation",
                   "campaigns.trajectories.record")

    def undo() -> None:
        while patches:
            owner, attr, original = patches.pop()
            setattr(owner, attr, original)

    return undo


def ledger_metrics(parent: dict, workers: list[dict], wall: float,
                   jobs: int, kernel) -> dict[str, float]:
    """Fold one traced region into the per-layer metrics it measures.

    ``parent`` is the measuring process's snapshot, ``workers`` the
    spooled worker snapshots, ``wall`` the traced region's wall time and
    ``kernel`` the region's folded :class:`~repro.telemetry.KernelStats`
    (or ``None``).  Self times are summed over processes.  The setup
    metrics and ``trace.*`` are the caller's.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    for snap in (parent, *workers):
        for name, value in snap["self_s"].items():
            self_s[name] += value
        for name, value in snap["calls"].items():
            calls[name] += value
        for name, value in snap["counts"].items():
            counts[name] += value
    items = [item for snap in (parent, *workers) for item in snap["items"]]
    boards = set().union(*(snap["boards"] for snap in (parent, *workers)))
    busy = sum(sum(snap["self_s"].values()) for snap in workers)

    blocked = parent["self_s"].get(_BLOCKED, 0.0)
    wait = blocked - busy / jobs
    # Time the named layers claim on the blocking path: the parent's own
    # layers, the workers' layers ÷ jobs and the pool wait.  The root
    # spans' self time (what no layer claimed) is left out, so coverage
    # falls below 1 by the unclaimed share.
    parent_named = (sum(parent["self_s"].values()) - blocked
                    - parent["self_s"].get(PARENT_ROOT, 0.0))
    worker_named = busy - self_s[_WORKER_ROOT]
    coverage = (parent_named + worker_named / jobs + max(wait, 0.0)) / wall

    durations = [seconds for _, _, seconds in items]
    lots: dict[int, list[float]] = defaultdict(list)
    for kind, index, seconds in items:
        if kind == "shard":
            lots[index].append(seconds)

    out: dict[str, float] = {
        "runtime.backends.busy_s": busy,
        "runtime.backends.wait_s": wait,
        "runtime.task_p50_s": statistics.median(durations) if durations else 0.0,
        "runtime.task_p90_s": (statistics.quantiles(durations, n=10)[8]
                               if len(durations) > 1 else sum(durations)),
        "runtime.task_samples": len(durations),
        "runtime.plan.execute_s": self_s["runtime.task"] + self_s["runtime.shard"],
        "runtime.sharding.lots": sum(len(t) for t in lots.values()),
        "runtime.sharding.imbalance": max(
            (max(t) / statistics.fmean(t) for t in lots.values()), default=0.0),
        "protocols.output_boards": len(boards),
        "protocols.output_reuse": (calls["protocols.output"] / len(boards)
                                   if boards else 0.0),
        "campaigns.store.hit_rate": (
            counts["store.hits"] / calls["campaigns.store.get"]
            if calls["campaigns.store.get"] else 0.0),
        "campaigns.store.frontier_rows": counts["store.frontier_rows"],
        "ledger.coverage": coverage,
        "core.kernel_steps": kernel.steps if kernel else 0,
        "core.batch.occupancy": kernel.batch_occupancy if kernel else 0.0,
        "adversaries.table_hit_rate": kernel.table_hit_rate if kernel else 0.0,
        "adversaries.bound_prunes": kernel.bound_prunes if kernel else 0,
        "adversaries.frontier_hits": kernel.frontier_hits if kernel else 0,
    }
    # Span name -> metric prefix; ``<prefix>_calls`` and ``<prefix>_s``.
    for span in ("runtime.results.record", "core.advance", "core.config_key",
                 "core.result", "core.replay", "protocols.message",
                 "protocols.output", "encoding.payload_bits",
                 "encoding.payload_key", "adversaries.minimize",
                 "campaigns.store.fingerprint", "campaigns.store.get",
                 "campaigns.store.put", "campaigns.store.put_frontiers",
                 "campaigns.cell.build_plan"):
        out[f"{span}_calls"] = calls[span]
        out[f"{span}_s"] = self_s[span]
    # Self time only.
    for span in ("runtime.sharding.lower", "runtime.sharding.reassemble",
                 "campaigns.store.load_frontiers",
                 "campaigns.trajectories.record", PARENT_ROOT, _WORKER_ROOT,
                 _BOOKKEEPING):
        out[f"{span}_s"] = self_s[span]
    out["analysis.checkers.calls"] = calls["analysis.checkers"]
    out["analysis.checkers.s"] = self_s["analysis.checkers"]
    for strategy in STRATEGIES:
        prefix = f"adversaries.{strategy}"
        out[f"{prefix}.s"] = self_s[prefix]
        out[f"{prefix}.explored"] = counts[f"{prefix}.explored"]
        out[f"{prefix}.budget_exhausted"] = counts[f"{prefix}.budget_exhausted"]
    return out
