"""Persistent cross-run transposition frontiers: the codec layer.

A warm-frontier campaign run persists what its branch-and-bound and
deadlock sweeps learned — exact completion frontiers and deadlock-free
facts — keyed by *configuration*, so the next run over the same cell
starts from solved subtrees instead of re-expanding them.  This module owns the boundary representation:

* **cell keys** (:func:`cell_key` / :func:`task_cell_key`): the scope a
  frontier row is valid in — exactly the ``(graph, protocol, model,
  bit budget, fault budget)`` tuple ``TranspositionTable.bind`` pins.
  Rows never cross cells; the code-version salt rides in its own store
  column so a source edit silently serves zero rows (never wrong ones).
* **config-key codec** (:func:`encode_key` / :func:`decode_key`):
  lossless tagged-JSON round trip of
  :meth:`~repro.core.execution.ExecutionState.config_key` tuples, whose
  components are ints, ``None``, nested tuples and frozensets of ints.
  The stored row key is the process-stable :func:`config_key_digest`
  (hex), but the full key payload travels alongside so loading
  reconstructs real table keys — digests alone could not repopulate a
  table.
* **entry codec** (:func:`encode_entry` / :func:`decode_entry`):
  :class:`~repro.adversaries.transposition.TableEntry` round trip:
  the completions (exactness follows from having any) and the
  ``deadlock_free`` fact.  The ``warm`` flag deliberately does not
  persist: it marks provenance within one run and is re-applied by
  ``TranspositionTable.preload``.

Determinism: :func:`encode_rows` sorts by digest, so the stored order —
and therefore every load order — is independent of dict/set iteration
order (``PYTHONHASHSEED``-stable, pinned by tests).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Optional

from ..adversaries.transposition import (
    Completion,
    TableEntry,
    TranspositionTable,
)
from ..graphs.codec import to_graph6
from ..graphs.labeled_graph import LabeledGraph

__all__ = [
    "cell_key",
    "task_cell_key",
    "encode_key",
    "decode_key",
    "config_key_digest",
    "encode_entry",
    "decode_entry",
    "encode_rows",
    "decode_rows",
]


# ----------------------------------------------------------------------
# cell keys
# ----------------------------------------------------------------------

def _jsonable(value: Any) -> Any:
    """Tuples/frozensets → lists, recursively (for canonical JSON)."""
    if isinstance(value, frozenset):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def cell_key(graph: LabeledGraph, protocol: Any, model_name: str,
             bit_budget: Optional[int], faults: Optional[str]) -> str:
    """Deterministic scope key of one search cell.

    Mirrors ``TranspositionTable.bind``: the graph (graph6 is lossless),
    the protocol's class-plus-primitive-params identity token, the model
    name, the bit budget and the canonical fault-budget string.  The
    code-version salt is *not* mixed in — it lives in its own store
    column, so ``campaign gc`` can still see which cell a stale row
    belonged to.
    """
    spec = {
        "graph": to_graph6(graph),
        "protocol": _jsonable(TranspositionTable._component_token(protocol)),
        "model": model_name,
        "bit_budget": bit_budget,
        "faults": faults,
    }
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def task_cell_key(task: Any) -> str:
    """The frontier cell key of one search :class:`ExecutionTask`."""
    return cell_key(task.graph, task.protocol, task.model_name,
                    task.bit_budget, task.faults)


# ----------------------------------------------------------------------
# config-key codec
# ----------------------------------------------------------------------

def _encode_component(value: Any) -> Any:
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, tuple):
        return ["t"] + [_encode_component(v) for v in value]
    if isinstance(value, frozenset):
        # Config-key frozensets hold ints only; sorting makes the
        # payload hash-seed independent.
        return ["f"] + sorted(value)
    raise TypeError(
        f"cannot store config-key component of type "
        f"{type(value).__qualname__!r}: {value!r}"
    )


def _decode_component(value: Any) -> Any:
    if not isinstance(value, list):
        return value
    if not value or value[0] not in ("t", "f"):
        raise ValueError(f"malformed stored config key: {value!r}")
    tag, rest = value[0], value[1:]
    if tag == "t":
        return tuple(_decode_component(v) for v in rest)
    return frozenset(rest)


def _normalize_key(obj):
    """Config-key component with frozensets replaced by sorted tuples
    (frozenset iteration order is not stable across processes; every
    other component is ints/None/tuples whose repr is)."""
    if isinstance(obj, frozenset):
        return ("fs",) + tuple(sorted(obj))
    if isinstance(obj, tuple):
        return tuple(_normalize_key(x) for x in obj)
    return obj


def config_key_digest(key) -> bytes:
    """Process-stable digest of an ``ExecutionState.config_key()``.

    Two keys digest equal iff they are equal: the only order-unstable
    components of a config key are frozensets of ints, normalized to
    sorted tuples before hashing.  Stored frontier rows are keyed by
    these digests (16 bytes, identical no matter which process computed
    them)."""
    return hashlib.blake2b(repr(_normalize_key(key)).encode(),
                           digest_size=16).digest()


def encode_key(key: tuple) -> str:
    """One config key as compact tagged JSON (lossless)."""
    return json.dumps(_encode_component(key), separators=(",", ":"))


def decode_key(payload: str) -> tuple:
    """Inverse of :func:`encode_key`."""
    return _decode_component(json.loads(payload))


# ----------------------------------------------------------------------
# entry codec
# ----------------------------------------------------------------------

def encode_entry(entry: TableEntry) -> str:
    """One table entry as compact JSON."""
    return json.dumps({
        "completions": [
            [c.deadlock, c.max_bits, c.total_bits, list(c.suffix)]
            for c in entry.completions
        ],
        "deadlock_free": entry.deadlock_free,
    }, separators=(",", ":"))


def decode_entry(payload: str) -> TableEntry:
    """Inverse of :func:`encode_entry` (``warm`` is left ``False``;
    ``TranspositionTable.preload`` marks served entries)."""
    data = json.loads(payload)
    return TableEntry(
        completions=tuple(
            Completion(deadlock=d, max_bits=b, total_bits=t,
                       suffix=tuple(suffix))
            for d, b, t, suffix in data["completions"]
        ),
        deadlock_free=data["deadlock_free"],
    )


# ----------------------------------------------------------------------
# row batches (the store's wire format)
# ----------------------------------------------------------------------

def encode_rows(
    rows: "Iterable[tuple[tuple, TableEntry]]",
) -> "list[tuple[str, str, str]]":
    """``(key, entry)`` pairs → ``(digest_hex, key_json, entry_json)``
    rows, sorted by digest so storage order never depends on set
    iteration order."""
    encoded = [
        (config_key_digest(key).hex(), encode_key(key), encode_entry(entry))
        for key, entry in rows
    ]
    encoded.sort(key=lambda row: row[0])
    return encoded


def decode_rows(
    rows: "Iterable[tuple[str, str]]",
) -> "list[tuple[tuple, TableEntry]]":
    """``(key_json, entry_json)`` rows → ``(key, entry)`` pairs ready
    for ``TranspositionTable.preload``."""
    return [
        (decode_key(key_json), decode_entry(entry_json))
        for key_json, entry_json in rows
    ]
