"""SQLite-backed persistent result store keyed by task fingerprints.

A campaign's unit of durable state is *one executed plan cell*: the
fingerprint of an :class:`~repro.runtime.plan.ExecutionTask` maps to the
exact :class:`~repro.runtime.results.VerificationReport` that executing
the cell produced, with the cell's witness records serialized as a JSONL
blob alongside.  Fingerprints are deterministic across processes and
machines (sha256 over a canonical JSON spec, never Python ``hash``), so
any two runs of unchanged code on the same cell agree on the key — that
is the whole cache/resume story:

* a **hit** is served by deserializing the stored report, which is
  *field-identical* to recomputing (the codec below round-trips every
  report field exactly, including failure outputs and witness
  schedules);
* a **miss** is executed and written back the moment its outcome streams
  out of the backend, so a killed campaign restarts where it died.

The fingerprint covers the plan cell (instance graph via graph6,
protocol/model/scheduler/adversary/checker construction parameters,
budgets, mode flags) plus a **code-version salt** hashed from the source
of every package that determines execution semantics — editing a
protocol or the simulator invalidates old entries wholesale instead of
silently serving stale results.  Construction parameters participate
only when they are primitives; compound attributes contribute their
class name and rely on the salt (documented invariant, see ROADMAP.md
"Campaign subsystem").

Concurrency rule: **the store is the only cross-process, cross-run
authority, and only the driving process touches it.**  Backends stay
stateless; worker processes never see the SQLite handle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import sqlite3
import time
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterable, Optional

from ..graphs.codec import from_graph6, to_graph6
from ..graphs.labeled_graph import LabeledGraph
from ..telemetry import tracer as _trace
from ..telemetry.stats import KernelStats
from ..runtime.results import (
    Failure,
    TaskOutcome,
    VerificationReport,
    WitnessRecord,
)

__all__ = [
    "ResultStore",
    "task_fingerprint",
    "code_version_salt",
    "payload_to_jsonable",
    "payload_from_jsonable",
    "report_to_jsonable",
    "report_from_jsonable",
]

#: Bump when the stored representation changes incompatibly; part of
#: every fingerprint, so old rows simply stop matching.
STORE_FORMAT_VERSION = 1

#: Environment override for the code-version salt (tests pin it; an
#: operator can use it to share a store across known-equivalent trees).
SALT_ENV_VAR = "REPRO_CAMPAIGN_SALT"

#: Subtrees of ``src/repro`` whose source feeds the code-version salt —
#: everything that can change what executing a task produces.
_SALT_SOURCES = (
    "core",
    "encoding",
    "faults",
    "graphs",
    "protocols",
    "adversaries",
    "runtime",
    "analysis/checkers.py",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint   TEXT PRIMARY KEY,
    campaign      TEXT,
    protocol      TEXT NOT NULL,
    model         TEXT NOT NULL,
    n             INTEGER NOT NULL,
    report_json   TEXT NOT NULL,
    witnesses_jsonl TEXT NOT NULL DEFAULT '',
    created_at    REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS trajectories (
    campaign      TEXT NOT NULL,
    generation    INTEGER NOT NULL,
    protocol      TEXT NOT NULL,
    model         TEXT NOT NULL,
    family        TEXT NOT NULL,
    n             INTEGER NOT NULL,
    bits          INTEGER NOT NULL,
    deadlock      INTEGER NOT NULL,
    strategy      TEXT NOT NULL,
    schedule      TEXT NOT NULL,
    minimal_schedule TEXT,
    graph6        TEXT NOT NULL,
    PRIMARY KEY (campaign, generation, protocol, model, family, n)
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS frontiers (
    cell_key      TEXT NOT NULL,
    digest        TEXT NOT NULL,
    salt          TEXT NOT NULL,
    key_json      TEXT NOT NULL,
    entry_json    TEXT NOT NULL,
    created_at    REAL NOT NULL,
    PRIMARY KEY (cell_key, digest)
);
"""


# ----------------------------------------------------------------------
# code-version salt
# ----------------------------------------------------------------------

@lru_cache(maxsize=1)
def _source_salt() -> str:
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for entry in _SALT_SOURCES:
        target = package_root / entry
        files = [target] if target.is_file() else sorted(target.rglob("*.py"))
        for path in files:
            rel = path.relative_to(package_root).as_posix()
            digest.update(rel.encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()[:16]


def code_version_salt() -> str:
    """Salt mixed into every fingerprint: a hash of the source of every
    execution-relevant subpackage, or the :data:`SALT_ENV_VAR` override.

    Any edit to the simulator, a protocol, an adversary, the encodings,
    the graphs layer or the runtime changes the salt and therefore every
    fingerprint — stored results can only ever be served for the code
    that produced them.
    """
    override = os.environ.get(SALT_ENV_VAR)
    if override:
        return override
    return _source_salt()


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------

_PRIMITIVES = (bool, int, float, str, type(None))


def _primitive_params(obj: Any) -> dict[str, Any]:
    """Public primitive attributes of ``obj``, deterministically.

    Compound attributes (engines, RNG state, caches) are represented by
    their class name only — their behaviour is covered by the code
    salt, their construction parameters are almost always mirrored in a
    primitive attribute as well (seeds, widths, budgets).
    """
    try:
        attrs = vars(obj)
    except TypeError:
        attrs = {}
    params: dict[str, Any] = {}
    for key in sorted(attrs):
        if key.startswith("_"):
            continue
        value = attrs[key]
        if isinstance(value, _PRIMITIVES):
            params[key] = value
        elif isinstance(value, (tuple, list, frozenset, set)) and all(
            isinstance(item, _PRIMITIVES) for item in value
        ):
            items = list(value)
            if isinstance(value, (frozenset, set)):
                items = sorted(items, key=repr)
            params[key] = items
        else:
            params[key] = {"class": type(value).__qualname__}
    return params


def _component_key(obj: Any) -> Optional[dict[str, Any]]:
    if obj is None:
        return None
    cls = type(obj)
    key: dict[str, Any] = {"class": f"{cls.__module__}.{cls.__qualname__}"}
    name = getattr(obj, "name", None)
    if isinstance(name, str):
        key["name"] = name
    params = _primitive_params(obj)
    if params:
        key["params"] = params
    return key


def task_fingerprint(task: Any, salt: Optional[str] = None) -> str:
    """Deterministic fingerprint of one :class:`ExecutionTask` cell.

    Everything that determines the cell's report participates: the
    instance (graph6 is lossless), the protocol/model, the lowered task
    mode, schedulers/adversaries/checker with their primitive
    construction parameters, budgets and flags — plus the code-version
    ``salt``.  The task ``index`` deliberately does *not*: the same cell
    at a different position in a different plan is the same work.
    """
    if salt is None:
        salt = code_version_salt()
    spec = {
        "format": STORE_FORMAT_VERSION,
        "salt": salt,
        "graph": {"n": task.graph.n, "graph6": to_graph6(task.graph)},
        "protocol": _component_key(task.protocol),
        "model": task.model_name,
        "mode": task.mode,
        "schedulers": [_component_key(s) for s in task.schedulers],
        "adversaries": [_component_key(a) for a in task.adversaries],
        "checker": _component_key(task.checker),
        "bit_budget": task.bit_budget,
        "exhaustive_limit": task.exhaustive_limit,
        "allow_deadlock": task.allow_deadlock,
        "keep_runs": task.keep_runs,
        "capture_witnesses": task.capture_witnesses,
        "minimize_witnesses": getattr(task, "minimize_witnesses", True),
        # Search-kernel knobs (None/False on non-search cells, so the
        # fingerprints of exhaustive cells do not churn with them).
        "score": getattr(task, "score", None),
        "share_table": getattr(task, "share_table", False),
        # Canonical fault-budget string (None on reliable cells, so
        # pre-fault fingerprints are unchanged modulo the salt).
        "faults": getattr(task, "faults", None),
    }
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# exact JSON codec for reports
# ----------------------------------------------------------------------

def payload_to_jsonable(value: Any) -> Any:
    """Encode an arbitrary protocol output/payload losslessly.

    Scalars pass through; every container becomes a tagged JSON array,
    so decoding is unambiguous.  Unknown types raise — silently lossy
    storage would break the store-hit ≡ recompute guarantee.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, LabeledGraph):
        return ["graph", value.n, to_graph6(value)]
    if isinstance(value, tuple):
        return ["tuple"] + [payload_to_jsonable(v) for v in value]
    if isinstance(value, list):
        return ["list"] + [payload_to_jsonable(v) for v in value]
    if isinstance(value, (frozenset, set)):
        tag = "frozenset" if isinstance(value, frozenset) else "set"
        encoded = [payload_to_jsonable(v) for v in value]
        encoded.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return [tag] + encoded
    if isinstance(value, dict):
        return ["dict"] + [
            [payload_to_jsonable(k), payload_to_jsonable(v)]
            for k, v in value.items()
        ]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Structured protocol outputs (BFS forests, MIS certificates…)
        # become routine Failure payloads under fault budgets; encode
        # them field-by-field so the round trip stays exact.
        cls = type(value)
        fields = dataclasses.fields(value)
        if any(not f.init for f in fields):
            raise TypeError(
                f"cannot store dataclass {cls.__qualname__!r}: it has "
                "non-init fields"
            )
        return ["dataclass", f"{cls.__module__}.{cls.__qualname__}", [
            [f.name, payload_to_jsonable(getattr(value, f.name))]
            for f in fields
        ]]
    raise TypeError(
        f"cannot store payload of type {type(value).__qualname__!r}: {value!r}"
    )


def payload_from_jsonable(value: Any) -> Any:
    """Inverse of :func:`payload_to_jsonable`."""
    if not isinstance(value, list):
        return value
    if not value or not isinstance(value[0], str):
        raise ValueError(f"malformed stored payload: {value!r}")
    tag, rest = value[0], value[1:]
    if tag == "graph":
        n, graph6 = rest
        graph = from_graph6(graph6)
        if graph.n != n:
            raise ValueError("inconsistent stored graph")
        return graph
    if tag == "tuple":
        return tuple(payload_from_jsonable(v) for v in rest)
    if tag == "list":
        return [payload_from_jsonable(v) for v in rest]
    if tag == "frozenset":
        return frozenset(payload_from_jsonable(v) for v in rest)
    if tag == "set":
        return {payload_from_jsonable(v) for v in rest}
    if tag == "dict":
        return {
            payload_from_jsonable(k): payload_from_jsonable(v)
            for k, v in rest
        }
    if tag == "dataclass":
        path, fields = rest
        module_name, _, qualname = path.rpartition(".")
        target = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
        return target(**{
            name: payload_from_jsonable(v) for name, v in fields
        })
    raise ValueError(f"unknown stored payload tag {tag!r}")


def _failure_to_jsonable(failure: Failure) -> dict[str, Any]:
    return {
        "graph": to_graph6(failure.graph),
        "schedule": list(failure.schedule),
        "output": payload_to_jsonable(failure.output),
        "kind": failure.kind,
    }


def _failure_from_jsonable(data: dict[str, Any]) -> Failure:
    return Failure(
        graph=from_graph6(data["graph"]),
        schedule=tuple(data["schedule"]),
        output=payload_from_jsonable(data["output"]),
        kind=data["kind"],
    )


def witness_to_jsonable(witness: WitnessRecord) -> dict[str, Any]:
    """One witness as one JSONL-ready object (raw *and* minimal form)."""
    return {
        "strategy": witness.strategy,
        "graph": to_graph6(witness.graph),
        "model": witness.model_name,
        "schedule": list(witness.schedule),
        "bits": witness.bits,
        "deadlock": witness.deadlock,
        "minimal_schedule": (
            None if witness.minimal_schedule is None
            else list(witness.minimal_schedule)
        ),
        "faults": witness.faults,
    }


def witness_from_jsonable(data: dict[str, Any]) -> WitnessRecord:
    """Inverse of :func:`witness_to_jsonable`."""
    minimal = data.get("minimal_schedule")
    return WitnessRecord(
        strategy=data["strategy"],
        graph=from_graph6(data["graph"]),
        model_name=data["model"],
        schedule=tuple(data["schedule"]),
        bits=data["bits"],
        deadlock=data["deadlock"],
        minimal_schedule=None if minimal is None else tuple(minimal),
        faults=data.get("faults"),
    )


def report_to_jsonable(report: VerificationReport) -> dict[str, Any]:
    """Flatten a report (witnesses excluded — they travel as JSONL)."""
    return {
        "protocol_name": report.protocol_name,
        "model_name": report.model_name,
        "instances": report.instances,
        "executions": report.executions,
        "exhaustive_instances": report.exhaustive_instances,
        "failures": [_failure_to_jsonable(f) for f in report.failures],
        "max_message_bits": report.max_message_bits,
        # JSON keys are strings; insertion order survives the round trip,
        # which `merge` relies on for field-identical folds.
        "max_bits_by_n": {str(n): b for n, b in report.max_bits_by_n.items()},
    }


def report_from_jsonable(
    data: dict[str, Any], witnesses: Iterable[WitnessRecord] = ()
) -> VerificationReport:
    """Inverse of :func:`report_to_jsonable`."""
    report = VerificationReport(data["protocol_name"], data["model_name"])
    report.instances = data["instances"]
    report.executions = data["executions"]
    report.exhaustive_instances = data["exhaustive_instances"]
    report.failures = [_failure_from_jsonable(f) for f in data["failures"]]
    report.max_message_bits = data["max_message_bits"]
    report.max_bits_by_n = {int(n): b for n, b in data["max_bits_by_n"].items()}
    report.witnesses = list(witnesses)
    return report


def _report_n(report: VerificationReport) -> int:
    """Instance size of a per-task report, for the informational ``n``
    column.  Deadlock-only cells under ``allow_deadlock`` never touch
    ``max_bits_by_n``, so fall back to the graphs their witnesses and
    failures carry."""
    if report.max_bits_by_n:
        return next(iter(report.max_bits_by_n))
    if report.witnesses:
        return report.witnesses[0].graph.n
    if report.failures:
        return report.failures[0].graph.n
    return 0


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------

class ResultStore:
    """Persistent, fingerprint-keyed store of per-task reports.

    ``path`` may be ``":memory:"`` for tests.  ``salt`` defaults to
    :func:`code_version_salt`; every fingerprint this store computes
    uses it.  The session counters ``hits``/``misses``/``writes`` track
    cache behaviour since construction (they are not persisted).
    """

    def __init__(self, path: "str | Path", salt: Optional[str] = None) -> None:
        self.path = str(path)
        self.salt = salt if salt is not None else code_version_salt()
        self._conn = sqlite3.connect(self.path)
        self._conn.executescript(_SCHEMA)
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            ("format_version", str(STORE_FORMAT_VERSION)),
        )
        self._conn.commit()
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- fingerprints --------------------------------------------------

    def fingerprint(self, task: Any) -> str:
        """This store's fingerprint for ``task`` (salt included)."""
        return task_fingerprint(task, self.salt)

    # -- reads ---------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[VerificationReport]:
        """The stored report for ``fingerprint``, or ``None``.

        Counts a session hit/miss either way.
        """
        tracer = _trace.active()
        start = time.perf_counter() if tracer is not None else 0.0
        row = self._conn.execute(
            "SELECT report_json, witnesses_jsonl FROM results "
            "WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        if row is None:
            self.misses += 1
            if tracer is not None:
                tracer.observe("store.get_seconds",
                               time.perf_counter() - start)
                tracer.count("store.misses")
            return None
        self.hits += 1
        report_json, witnesses_jsonl = row
        witnesses = [
            witness_from_jsonable(json.loads(line))
            for line in witnesses_jsonl.splitlines()
            if line.strip()
        ]
        report = report_from_jsonable(json.loads(report_json), witnesses)
        if tracer is not None:
            tracer.observe("store.get_seconds", time.perf_counter() - start)
            tracer.count("store.hits")
        return report

    def __contains__(self, fingerprint: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM results WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        return row is not None

    def fingerprints(self) -> set[str]:
        """All stored result fingerprints."""
        rows = self._conn.execute("SELECT fingerprint FROM results")
        return {fp for (fp,) in rows}

    def result_count(self) -> int:
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM results"
        ).fetchone()
        return count

    # -- writes --------------------------------------------------------

    def put(self, fingerprint: str, report: VerificationReport,
            *, n: int = 0, campaign: Optional[str] = None) -> None:
        """Store (or replace) the report for one executed cell.

        Commits immediately: durability per task is the resume
        guarantee.
        """
        tracer = _trace.active()
        start = time.perf_counter() if tracer is not None else 0.0
        witnesses_jsonl = "\n".join(
            json.dumps(witness_to_jsonable(w), sort_keys=True)
            for w in report.witnesses
        )
        self._conn.execute(
            "INSERT OR REPLACE INTO results "
            "(fingerprint, campaign, protocol, model, n, report_json, "
            " witnesses_jsonl, created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                fingerprint,
                campaign,
                report.protocol_name,
                report.model_name,
                n,
                json.dumps(report_to_jsonable(report), sort_keys=True),
                witnesses_jsonl,
                time.time(),
            ),
        )
        self._conn.commit()
        self.writes += 1
        if tracer is not None:
            tracer.observe("store.put_seconds", time.perf_counter() - start)
            tracer.count("store.commits")

    def put_outcome(self, fingerprint: str, outcome: TaskOutcome,
                    campaign: Optional[str] = None) -> None:
        """Sink entry point (:class:`~repro.runtime.results.StoreBackedSink`).

        Only checker-carrying outcomes are storable: raw ``RunResult``
        transcripts deliberately never enter the store (aggregates and
        witnesses are the durable currency).
        """
        if outcome.report is None:
            raise ValueError(
                f"task {outcome.index} produced no report; only plans built "
                "with a checker can be stored"
            )
        self.put(fingerprint, outcome.report, n=_report_n(outcome.report),
                 campaign=campaign)

    def gc(self, live: Iterable[str],
           campaign: Optional[str] = None) -> int:
        """Delete stored results whose fingerprint is not in ``live``;
        returns the number removed.

        With ``campaign`` given, only rows labelled with that campaign
        are candidates — other campaigns (and unlabelled
        ``verify_protocol`` results) sharing the store are never
        touched by one campaign's gc.  ``campaign=None`` is the global
        sweep over every row.  Trajectory rows are *not* touched in
        either mode — they are the cross-run record campaigns exist to
        accumulate; gc is about the result cache only.
        """
        keep = set(live)
        if campaign is None:
            candidates = self.fingerprints()
        else:
            candidates = {
                fp for (fp,) in self._conn.execute(
                    "SELECT fingerprint FROM results WHERE campaign = ?",
                    (campaign,),
                )
            }
        doomed = [fp for fp in candidates if fp not in keep]
        self._conn.executemany(
            "DELETE FROM results WHERE fingerprint = ?",
            [(fp,) for fp in doomed],
        )
        self._conn.commit()
        return len(doomed)

    # -- persistent transposition frontiers ----------------------------

    def put_frontiers(self, cell_key: str, rows: Iterable[tuple]) -> int:
        """Persist ``(config_key, TableEntry)`` pairs for one search
        cell (the dirty-row export of the cell's table); returns the
        number of rows written.

        Rows are stamped with this store's salt: a later load under a
        different salt (any source edit) serves none of them.  An
        ``INSERT OR REPLACE`` per digest means re-running a cell
        replaces its rows with at-least-as-complete knowledge (exact
        frontiers are terminal; a deadlock-free fact is never retracted).
        """
        from .frontiers import encode_rows

        encoded = encode_rows(rows)
        if not encoded:
            return 0
        now = time.time()
        self._conn.executemany(
            "INSERT OR REPLACE INTO frontiers "
            "(cell_key, digest, salt, key_json, entry_json, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            [(cell_key, digest, self.salt, key_json, entry_json, now)
             for digest, key_json, entry_json in encoded],
        )
        self._conn.commit()
        self.writes += 1
        return len(encoded)

    def load_frontiers(self, cell_key: str) -> list:
        """The stored ``(config_key, TableEntry)`` pairs for one cell,
        in digest order — **current-salt rows only**, so frontiers
        recorded by different code are never served."""
        from .frontiers import decode_rows

        rows = self._conn.execute(
            "SELECT key_json, entry_json FROM frontiers "
            "WHERE cell_key = ? AND salt = ? ORDER BY digest",
            (cell_key, self.salt),
        ).fetchall()
        return decode_rows(rows)

    def frontier_count(self, cell_key: Optional[str] = None) -> int:
        """Stored frontier rows (one cell, or the whole table),
        regardless of salt."""
        if cell_key is None:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM frontiers"
            ).fetchone()
        else:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM frontiers WHERE cell_key = ?",
                (cell_key,),
            ).fetchone()
        return count

    def gc_frontiers(self, live_cell_keys: Iterable[str]) -> int:
        """Delete frontier rows whose cell key is not live, plus every
        stale-salt row (unservable by construction); returns the number
        removed.  Complements :meth:`gc`, which never touches
        frontiers — result rows and frontier rows have independent
        lifetimes (dropping a cached report deliberately keeps the
        frontier knowledge that re-running the cell would reuse)."""
        keep = set(live_cell_keys)
        candidates = self._conn.execute(
            "SELECT cell_key, digest, salt FROM frontiers"
        ).fetchall()
        doomed = [
            (ck, digest) for ck, digest, salt in candidates
            if ck not in keep or salt != self.salt
        ]
        self._conn.executemany(
            "DELETE FROM frontiers WHERE cell_key = ? AND digest = ?",
            doomed,
        )
        self._conn.commit()
        return len(doomed)

    # -- meta ----------------------------------------------------------

    def set_meta(self, key: str, value: str) -> None:
        """Set one key in the meta table (small operational metadata;
        never part of any fingerprint)."""
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            (key, value),
        )
        self._conn.commit()

    def get_meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row is not None else None

    def record_kernel_summary(self, campaign: str,
                              kernel: Optional[KernelStats]) -> None:
        """Persist the folded kernel snapshot of a campaign's latest
        completed run, for ``campaign status``.  Observation-only
        metadata: replaced wholesale each run, invisible to
        fingerprints, and ``None`` (nothing observed) is a no-op."""
        if kernel is None:
            return
        self.set_meta(
            f"kernel:{campaign}",
            json.dumps(kernel.to_jsonable(), sort_keys=True),
        )

    def kernel_summary(self, campaign: str) -> Optional[KernelStats]:
        """The stored kernel snapshot for ``campaign``, or ``None``."""
        raw = self.get_meta(f"kernel:{campaign}")
        if raw is None:
            return None
        return KernelStats.from_jsonable(json.loads(raw))

    # -- trajectory storage (used by repro.campaigns.trajectories) -----

    def campaigns(self) -> list[str]:
        """Campaign names with recorded trajectory generations."""
        rows = self._conn.execute(
            "SELECT DISTINCT campaign FROM trajectories ORDER BY campaign"
        )
        return [name for (name,) in rows]

    def latest_generation(self, campaign: str) -> int:
        """Highest recorded generation for ``campaign`` (0 if none)."""
        (latest,) = self._conn.execute(
            "SELECT COALESCE(MAX(generation), 0) FROM trajectories "
            "WHERE campaign = ?",
            (campaign,),
        ).fetchone()
        return latest

    def add_trajectory_rows(self, rows: Iterable[tuple]) -> None:
        """Insert fully-formed trajectory rows (see the schema)."""
        self._conn.executemany(
            "INSERT OR REPLACE INTO trajectories "
            "(campaign, generation, protocol, model, family, n, bits, "
            " deadlock, strategy, schedule, minimal_schedule, graph6) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            list(rows),
        )
        self._conn.commit()

    def trajectory_rows(
        self, campaign: str, generation: Optional[int] = None
    ) -> list[tuple]:
        """Trajectory rows for ``campaign`` (one generation or all),
        ordered deterministically."""
        query = (
            "SELECT campaign, generation, protocol, model, family, n, bits, "
            "deadlock, strategy, schedule, minimal_schedule, graph6 "
            "FROM trajectories WHERE campaign = ?"
        )
        params: list[Any] = [campaign]
        if generation is not None:
            query += " AND generation = ?"
            params.append(generation)
        query += " ORDER BY generation, protocol, model, family, n"
        return list(self._conn.execute(query, params))

    # -- reporting -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Store-level summary for ``campaign status``."""
        per_campaign = dict(self._conn.execute(
            "SELECT COALESCE(campaign, '(none)'), COUNT(*) FROM results "
            "GROUP BY campaign ORDER BY campaign"
        ))
        generations = dict(self._conn.execute(
            "SELECT campaign, MAX(generation) FROM trajectories "
            "GROUP BY campaign ORDER BY campaign"
        ))
        return {
            "path": self.path,
            "salt": self.salt,
            "results": self.result_count(),
            "results_by_campaign": per_campaign,
            "frontiers": self.frontier_count(),
            "generations": generations,
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
            },
        }
