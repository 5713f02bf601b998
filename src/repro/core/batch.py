"""Batched structure-of-arrays execution core: the beam search's engine.

The scalar :class:`~repro.core.execution.ExecutionState` steps one
configuration at a time; a beam frontier wants *hundreds* of
near-identical configurations stepped in lockstep.  A
:class:`BatchedExecutionState` holds N configurations as parallel numpy
arrays — written/active/crashed node sets packed into uint64 bitmask
lanes, activation rounds and frozen-message handles as (N, n) matrices,
bit totals and schedule cursors as int64 vectors — and advances *all* of
them with a handful of vectorised array operations per generation.
:class:`~repro.adversaries.beam.BeamSearchAdversary` is its only
caller; exhaustive enumeration walks the scalar engine.

Design rules (the reason this module is allowed to exist):

* **The scalar engine is the only semantic authority.**  Every batched
  value is pinned field-identical to the scalar one — config keys,
  dedupe keys, bounds, terminal schedules and bit totals, fault budgets
  included — by the equivalence tests in ``tests/core/test_batch.py``
  and ``tests/adversaries/test_batched_beam.py``.  Nothing here may
  change an observable value; it may only produce the same values
  faster.
* **Shared immutable context lives in one ``_BatchCell``** per
  (graph, protocol, model, budget, faults) cell: interned message
  records with lazily computed bit sizes and codec digests, a view trie
  (board prefixes), a schedule trie, and ``(node, view)``-keyed message
  and activation caches.  Lanes carry integer handles into these
  structures, so forking a lane is an array gather, not an object copy.
* **Violations are captured per lane**, never raised mid-kernel: a lane
  whose step raises (:class:`~repro.core.errors.MessageTooLarge`, a
  protocol violation, a decoder crash during activation) is marked dead
  and carries its exception.  The beam re-raises in scalar generation
  order, so exception timing matches the reference exactly.
* **Only stateless protocols** (``fresh()`` returns ``self``) qualify:
  hidden per-run protocol state cannot be gathered.  ``batch_supported``
  gates every entry point; unsupported cells silently use the scalar
  path.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Union

try:  # numpy is a hard dependency of the graphs layer, but stay graceful
    import numpy as np
except Exception:  # pragma: no cover - exercised only on stripped installs
    np = None

from ..encoding.bits import payload_bits, payload_key
from ..faults.spec import FaultSpec, resolve_faults
from ..telemetry import tracer as _trace
from .errors import MessageTooLarge, ProtocolViolation
from .execution import ExecutionState
from .models import ModelSpec
from .protocol import NodeView, Protocol
from .whiteboard import BoardView
from ..graphs.labeled_graph import LabeledGraph

__all__ = ["BatchedExecutionState", "batch_supported"]


def batch_supported(graph: LabeledGraph, protocol: Protocol,
                    model: ModelSpec) -> bool:
    """Whether this cell can run on the batched core.

    Requires numpy with ``bitwise_count`` (>= 2.0), at most 64 nodes
    (one uint64 bitmask lane per set), and a *stateless* protocol —
    hidden per-run protocol state cannot be forked by an array gather.
    """
    if np is None or not hasattr(np, "bitwise_count"):
        return False
    if graph.n > 64:
        return False
    try:
        return protocol.fresh() is protocol
    except Exception:
        return False


def _iter_bits(mask: int) -> Iterator[int]:
    """Node numbers (1-based, ascending) present in a bitmask."""
    v = 1
    while mask:
        if mask & 1:
            yield v
        mask >>= 1
        v += 1


class _BatchCell:
    """Shared immutable context + memo tables for one execution cell.

    One cell is shared by every batch of the same
    (graph, protocol, model, bit_budget, faults) tuple — beam restarts
    and forks.  All caches are append-only, so sharing is
    safe, and all message/bit/key computation happens here exactly once
    per distinct (node, view) pair.
    """

    def __init__(self, graph: LabeledGraph, protocol: Protocol,
                 model: ModelSpec, bit_budget: Optional[int],
                 faults: Union[None, str, FaultSpec]) -> None:
        self.graph = graph
        self.protocol = protocol
        self.proto = protocol  # stateless: fresh() is protocol
        self.model = model
        self.bit_budget = bit_budget
        self.faults = resolve_faults(faults)
        n = graph.n
        self.n = n
        self.full_mask = (1 << n) - 1
        #: Simultaneous asynchronous models freeze every message against
        #: the empty round-0 board, so messages are static per node and
        #: lanes never need view tracking.
        self.track_views = not (model.simultaneous and model.asynchronous)
        self._neighbors = {v: graph.neighbors(v) for v in graph.nodes()}

        # -- schedule trie (append-only; id 0 = the empty schedule)
        self._sched_parent: list[int] = [0]
        self._sched_choice: list[int] = [0]
        self._sched_tuples: dict[int, tuple[int, ...]] = {0: ()}

        # -- view trie (board prefixes; id 0 = the empty board)
        self._view_parent: list[int] = [0]
        self._view_rec: list[int] = [-1]
        self._view_children: list[dict[int, int]] = [{}]
        self._view_tuples: dict[int, tuple] = {0: ()}

        # -- interned message records (lazy bits / codec digests)
        self._rec_payload: list[Any] = []
        self._rec_node: list[int] = []
        self._rec_bits: list[Optional[int]] = []
        self._rec_key: list[Any] = []
        self._rec_key_id: list[Optional[int]] = []
        self._rec_bits_exc: dict[int, Exception] = {}
        self._rec_key_exc: dict[int, Exception] = {}
        self._key_intern: dict[Any, int] = {}
        self._bits_np = np.full(0, -1, dtype=np.int64)

        # -- (node, view)-keyed caches
        self._msg_cache: dict[tuple[int, int], Any] = {}
        self._wants_cache: dict[tuple[int, int], Any] = {}

        # -- board-part chains for scalar-equivalent dedupe keys
        #: (chain id, entry key id) -> chain id; equal chains <=> equal
        #: entry-key tuples, so chain ids substitute for the board part
        #: of ``config_key()`` in O(1) per write.
        self._bp_children: dict[tuple[int, int], int] = {}
        self._bp_count = 1  # id 0 = empty board

        # -- frozen-part / activation-part interning
        self._frozen_intern: dict[tuple, int] = {}
        self._frozen_by_active: dict[int, int] = {}
        self._act_intern: dict[tuple, int] = {}

        #: Decode probe cache (DecodeFailure-style scoring), keyed by
        #: view id — boards with the same view id are identical.
        self._decode_cache: dict[int, bool] = {}

        #: Static per-node records for simultaneous asynchronous models
        #: (frozen at round 0 against the empty board, like the scalar
        #: ``initial()`` — exceptions propagate raw from here too).
        self._static_rec: Optional[list[int]] = None
        self._static_rec_arr = None
        if not self.track_views:
            self._static_rec = [self._rec_for(v, 0) for v in graph.nodes()]
            self._static_rec_arr = np.array(self._static_rec, dtype=np.int64)

    # -- message records ----------------------------------------------

    def _node_view(self, v: int, vid: int) -> NodeView:
        return NodeView(node=v, neighbors=self._neighbors[v], n=self.n,
                        board=BoardView(self._view_payloads(vid)))

    def _intern_rec(self, v: int, payload: Any) -> int:
        rec = len(self._rec_payload)
        self._rec_payload.append(payload)
        self._rec_node.append(v)
        self._rec_bits.append(None)
        self._rec_key.append(None)
        self._rec_key_id.append(None)
        return rec

    def _rec_for(self, v: int, vid: int) -> int:
        """The interned record for ``protocol.message`` of ``v`` against
        view ``vid`` (cached; exceptions are cached and re-raised)."""
        key = (v, vid)
        rec = self._msg_cache.get(key)
        if rec is None:
            try:
                payload = ExecutionState._own_payload(
                    self.proto.message(self._node_view(v, vid)))
            except Exception as exc:
                self._msg_cache[key] = exc
                raise
            rec = self._intern_rec(v, payload)
            self._msg_cache[key] = rec
        elif isinstance(rec, Exception):
            raise rec
        return rec

    def _bits_of(self, rec: int) -> int:
        """Message bits for a record (lazy — scalar computes them at
        first *write*, not at freeze, and so do we)."""
        bits = self._rec_bits[rec]
        if bits is None:
            exc = self._rec_bits_exc.get(rec)
            if exc is not None:
                raise exc
            try:
                bits = payload_bits(self._rec_payload[rec])
            except TypeError as cause:
                exc = ProtocolViolation(
                    f"{self.proto.name}: node {self._rec_node[rec]} produced "
                    f"a non-payload message: {cause}"
                )
                exc.__cause__ = cause
                self._rec_bits_exc[rec] = exc
                raise exc
            self._rec_bits[rec] = bits
        return bits

    def _bits_np_for(self, max_rec: int):
        """Numpy mirror of the per-record bit sizes (-1 = not yet
        computed), grown to cover record ids up to ``max_rec``."""
        arr = self._bits_np
        if arr.shape[0] <= max_rec:
            arr = np.array(
                [b if b is not None else -1 for b in self._rec_bits],
                dtype=np.int64,
            )
            self._bits_np = arr
        return arr

    def _refresh_bits_np(self) -> None:
        self._bits_np = np.array(
            [b if b is not None else -1 for b in self._rec_bits],
            dtype=np.int64,
        )

    def _key_id_of(self, rec: int) -> int:
        """Interned codec-digest id of a *written* record's payload
        (the payload already passed ``payload_bits``, so the digest
        cannot fail)."""
        kid = self._rec_key_id[rec]
        if kid is None:
            key = payload_key(self._rec_payload[rec])
            kid = self._key_intern.setdefault(key, len(self._key_intern))
            self._rec_key[rec] = key
            self._rec_key_id[rec] = kid
        return kid

    def _frozen_key_id_of(self, rec: int) -> int:
        """Like :meth:`_key_id_of` for *frozen* (unwritten) messages,
        wrapping codec failures exactly like the scalar config_key."""
        exc = self._rec_key_exc.get(rec)
        if exc is not None:
            raise exc
        try:
            return self._key_id_of(rec)
        except TypeError as cause:
            exc = ProtocolViolation(
                f"{self.proto.name}: node {self._rec_node[rec]} froze a "
                f"non-payload message: {cause}"
            )
            exc.__cause__ = cause
            self._rec_key_exc[rec] = exc
            raise exc

    # -- view trie -----------------------------------------------------

    def _view_child_of(self, vid: int, rec: int) -> int:
        children = self._view_children[vid]
        child = children.get(rec)
        if child is None:
            child = len(self._view_parent)
            self._view_parent.append(vid)
            self._view_rec.append(rec)
            self._view_children.append({})
            children[rec] = child
        return child

    def _view_payloads(self, vid: int) -> tuple:
        payloads = self._view_tuples.get(vid)
        if payloads is None:
            payloads = (self._view_payloads(self._view_parent[vid])
                        + (self._rec_payload[self._view_rec[vid]],))
            self._view_tuples[vid] = payloads
        return payloads

    def _view_recs(self, vid: int) -> list[int]:
        recs: list[int] = []
        while vid:
            recs.append(self._view_rec[vid])
            vid = self._view_parent[vid]
        recs.reverse()
        return recs

    def _wants(self, v: int, vid: int) -> bool:
        key = (v, vid)
        wants = self._wants_cache.get(key)
        if wants is None:
            try:
                wants = bool(self.proto.wants_to_activate(
                    self._node_view(v, vid)))
            except Exception as exc:
                self._wants_cache[key] = exc
                raise
            self._wants_cache[key] = wants
        elif isinstance(wants, Exception):
            raise wants
        return wants

    def _decodes(self, vid: int) -> bool:
        """Whether ``protocol.output`` decodes the board of ``vid``
        (cached per view — the DecodeFailure scoring probe)."""
        ok = self._decode_cache.get(vid)
        if ok is None:
            try:
                self.proto.output(BoardView(self._view_payloads(vid)), self.n)
            except Exception:
                ok = False
            else:
                ok = True
            self._decode_cache[vid] = ok
        return ok

    # -- schedule trie -------------------------------------------------

    def _sched_append(self, parents, choices):
        base = len(self._sched_parent)
        self._sched_parent.extend(parents.tolist())
        self._sched_choice.extend(choices.tolist())
        return np.arange(base, base + int(parents.shape[0]), dtype=np.int64)

    def _sched_tuple_of(self, sid: int) -> tuple[int, ...]:
        sched = self._sched_tuples.get(sid)
        if sched is None:
            sched = (self._sched_tuple_of(self._sched_parent[sid])
                     + (self._sched_choice[sid],))
            self._sched_tuples[sid] = sched
        return sched

    def _bp_child_of(self, bp: int, key_id: int) -> int:
        child = self._bp_children.get((bp, key_id))
        if child is None:
            child = self._bp_count
            self._bp_count += 1
            self._bp_children[(bp, key_id)] = child
        return child


class BatchedExecutionState:
    """N configurations of one cell, stepped in lockstep.

    Lanes are columns of parallel arrays; every mutating operation
    (:meth:`advance_all`, :meth:`fork`, :meth:`compact`) is an array
    expression plus small per-lane loops only where the model is
    genuinely view-dependent (free activation, synchronous messages).
    A lane whose step raised is *dead*: it keeps its arrays but carries
    the exception in :attr:`violations`, and the beam re-raises it in
    generation order.
    """

    __slots__ = (
        "cell", "size", "written", "active", "crashed", "depth", "sched",
        "view", "bp", "maxb", "totb", "lastb", "lastt", "cl", "ll", "dl",
        "frozen", "act", "dead", "violations", "track_sched", "track_bp",
        "track_views",
    )

    def __init__(self) -> None:
        raise TypeError("use BatchedExecutionState.root(cell, ...)")

    # -- construction --------------------------------------------------

    @classmethod
    def root(cls, cell: _BatchCell, track_sched: bool = True,
             track_bp: bool = False,
             track_views: Optional[bool] = None) -> "BatchedExecutionState":
        """A one-lane batch holding the initial configuration (after
        the round-0 activation pass, like the scalar ``initial``)."""
        self = object.__new__(cls)
        self.cell = cell
        self.size = 1
        n = cell.n
        self.track_sched = track_sched
        self.track_bp = track_bp
        self.track_views = (cell.track_views if track_views is None
                            else (track_views or cell.track_views))
        zeros = lambda dtype=np.int64: np.zeros(1, dtype=dtype)  # noqa: E731
        self.written = zeros(np.uint64)
        self.active = zeros(np.uint64)
        self.crashed = zeros(np.uint64)
        self.depth = zeros()
        self.sched = zeros() if track_sched else None
        self.view = zeros() if self.track_views else None
        self.bp = zeros() if track_bp else None
        self.maxb = zeros()
        self.totb = zeros()
        self.lastb = zeros()
        self.lastt = zeros()
        self.cl = np.full(1, cell.faults.max_crashes, dtype=np.int64)
        self.ll = np.full(1, cell.faults.max_losses, dtype=np.int64)
        self.dl = np.full(1, cell.faults.max_duplications, dtype=np.int64)
        self.act = np.full((1, n), -1, dtype=np.int32)
        needs_frozen = cell.model.asynchronous and cell._static_rec is None
        self.frozen = (np.full((1, n), -1, dtype=np.int64)
                       if needs_frozen else None)
        self.dead = np.zeros(1, dtype=bool)
        self.violations: dict[int, Exception] = {}

        # round-0 activation pass; exceptions propagate raw, exactly
        # like the scalar ``ExecutionState.initial``.
        model = cell.model
        if model.simultaneous:
            self.active[0] = np.uint64(cell.full_mask)
            self.act[0, :] = 0
            # simultaneous asynchronous freezing happened in the cell
            # (static records); simultaneous synchronous never freezes.
        else:
            mask = 0
            for v in cell.graph.nodes():
                if cell._wants(v, 0):
                    mask |= 1 << (v - 1)
                    self.act[0, v - 1] = 0
                    if model.asynchronous:
                        self.frozen[0, v - 1] = cell._rec_for(v, 0)
            self.active[0] = np.uint64(mask)
        return self

    def compact(self, keep) -> "BatchedExecutionState":
        """A new batch holding only the lanes in ``keep`` (an index
        array), in that order — the gather that drops dead or pruned
        lanes and implements :meth:`fork`'s parent expansion."""
        keep = np.asarray(keep, dtype=np.int64)
        clone = object.__new__(type(self))
        clone.cell = self.cell
        clone.size = int(keep.shape[0])
        clone.track_sched = self.track_sched
        clone.track_bp = self.track_bp
        clone.track_views = self.track_views
        for name in ("written", "active", "crashed", "depth", "maxb",
                     "totb", "lastb", "lastt", "cl", "ll", "dl", "act",
                     "dead"):
            setattr(clone, name, getattr(self, name)[keep])
        clone.sched = self.sched[keep] if self.sched is not None else None
        clone.view = self.view[keep] if self.view is not None else None
        clone.bp = self.bp[keep] if self.bp is not None else None
        clone.frozen = self.frozen[keep] if self.frozen is not None else None
        if self.violations:
            old = {int(lane): pos for pos, lane in enumerate(keep.tolist())}
            clone.violations = {
                old[lane]: exc for lane, exc in self.violations.items()
                if lane in old
            }
        else:
            clone.violations = {}
        _trace.observe("batch.compact_width", clone.size)
        return clone

    def fork(self, parents, choices) -> "BatchedExecutionState":
        """Children of ``parents`` (lane indices) under ``choices`` —
        an array gather followed by one vectorised advance."""
        child = self.compact(parents)
        child.advance_all(choices)
        _trace.observe("batch.fork_width", child.size)
        return child

    # -- inspection ----------------------------------------------------

    def __len__(self) -> int:
        return self.size

    def write_mask(self):
        """Per-lane bitmask of write candidates (active and unwritten)."""
        return self.active & ~self.written

    def done_mask(self):
        terminated = np.bitwise_count(self.written | self.crashed)
        return terminated.astype(np.int64) == self.cell.n

    def terminal_mask(self):
        return self.done_mask() | (self.write_mask() == np.uint64(0))

    def deadlocked_at(self, lane: int) -> bool:
        return (not bool(self.done_mask()[lane])
                and int(self.write_mask()[lane]) == 0)

    def first_violation(self) -> Optional[int]:
        return min(self.violations) if self.violations else None

    def schedule_of(self, lane: int) -> tuple[int, ...]:
        if self.sched is None:
            raise ValueError("schedules were not tracked for this batch")
        return self.cell._sched_tuple_of(int(self.sched[lane]))

    # -- candidate expansion -------------------------------------------

    def candidates_mask(self):
        """(N, C) boolean candidate matrix plus the choice value of
        each column, columns in scalar candidate order: writes
        ascending, then crash, loss, and duplication events."""
        cell = self.cell
        n = cell.n
        wm = self.write_mask()
        live = ~self.dead
        shifts = np.arange(n, dtype=np.uint64)
        writes = (((wm[:, None] >> shifts) & np.uint64(1)) != 0)
        writes &= live[:, None]
        blocks = [writes]
        values = [np.arange(1, n + 1, dtype=np.int64)]
        if cell.faults.enabled:
            has_writes = (wm != np.uint64(0)) & live
            any_budget = (self.cl > 0) | (self.ll > 0) | (self.dl > 0)
            gate = has_writes & any_budget
            unterminated = (~(self.written | self.crashed)
                            & np.uint64(cell.full_mask))
            crash = (((unterminated[:, None] >> shifts) & np.uint64(1)) != 0)
            blocks.append(crash & (gate & (self.cl > 0))[:, None])
            values.append(-np.arange(1, n + 1, dtype=np.int64))
            blocks.append(writes & (gate & (self.ll > 0))[:, None])
            values.append(-np.arange(n + 1, 2 * n + 1, dtype=np.int64))
            blocks.append(writes & (gate & (self.dl > 0))[:, None])
            values.append(-np.arange(2 * n + 1, 3 * n + 1, dtype=np.int64))
        return np.concatenate(blocks, axis=1), np.concatenate(values)

    def expansion(self):
        """``(parent lanes, choices)`` for every candidate of every
        lane, in scalar generation order (frontier order x candidate
        order) — feed straight into :meth:`fork`."""
        matrix, values = self.candidates_mask()
        lanes, cols = np.nonzero(matrix)
        return lanes.astype(np.int64), values[cols]

    # -- the step relation ---------------------------------------------

    def _kill(self, lane: int, exc: Exception) -> None:
        self.dead[lane] = True
        self.violations[lane] = exc

    def advance_all(self, choices) -> "BatchedExecutionState":
        """Apply one adversary choice per lane, vectorised.

        Order of effects per lane matches the scalar ``advance``:
        message resolution, bit accounting, budget check, board append,
        activation pass.  A failing lane is killed (its exception
        captured) without disturbing the others.
        """
        cell = self.cell
        n = cell.n
        choices = np.asarray(choices, dtype=np.int64)
        if choices.shape[0] != self.size:
            raise ValueError(
                f"{choices.shape[0]} choices for {self.size} lanes")
        if (not cell.faults.enabled and not self.dead.any()
                and cell.model.asynchronous
                and cell._static_rec_arr is not None):
            return self._advance_reliable_simasync(choices)
        is_write = choices > 0
        negv = -choices
        is_crash = (~is_write) & (negv >= 1) & (negv <= n)
        is_loss = (~is_write) & (negv > n) & (negv <= 2 * n)
        is_dup = (~is_write) & (negv > 2 * n) & (negv <= 3 * n)
        node = np.where(is_write, choices,
                        np.where(is_crash, negv,
                                 np.where(is_loss, negv - n, negv - 2 * n)))
        bitv = np.uint64(1) << (node - 1).astype(np.uint64)
        live = ~self.dead

        # -- resolve the produced message (write / loss / dup lanes)
        produces = (is_write | is_loss | is_dup) & live
        rec = np.full(self.size, -1, dtype=np.int64)
        idx = np.nonzero(produces)[0]
        if cell.model.asynchronous:
            if cell._static_rec_arr is not None:
                rec[idx] = cell._static_rec_arr[node[idx] - 1]
            else:
                rec[idx] = self.frozen[idx, node[idx] - 1]
        else:
            for i in idx:
                try:
                    rec[i] = cell._rec_for(int(node[i]), int(self.view[i]))
                except Exception as exc:
                    self._kill(int(i), exc)
            live = ~self.dead
            produces &= live
            idx = np.nonzero(produces)[0]

        # -- bit sizes (lazy per record) and the budget check
        bits = np.zeros(self.size, dtype=np.int64)
        if idx.size:
            barr = cell._bits_np_for(int(rec[idx].max()))
            lane_bits = barr[rec[idx]]
            unknown = idx[lane_bits < 0]
            if unknown.size:
                for i in unknown:
                    try:
                        cell._bits_of(int(rec[i]))
                    except Exception as exc:
                        self._kill(int(i), exc)
                cell._refresh_bits_np()
                live = ~self.dead
                produces &= live
                idx = np.nonzero(produces)[0]
                barr = cell._bits_np
            bits[idx] = barr[rec[idx]]
            if cell.bit_budget is not None:
                budget = cell.bit_budget
                for i in idx[bits[idx] > budget]:
                    self._kill(int(i), MessageTooLarge(
                        int(node[i]), int(bits[i]), budget))
                live = ~self.dead

        # -- set updates (masked vector expressions)
        zero64 = np.uint64(0)
        board_write = (is_write | is_dup) & live
        lossy = is_loss & live
        crashy = is_crash & live
        terminate = board_write | lossy
        self.written = self.written | np.where(terminate, bitv, zero64)
        self.active = self.active & ~np.where(terminate | crashy, bitv,
                                              zero64)
        self.crashed = self.crashed | np.where(crashy, bitv, zero64)
        self.cl = self.cl - crashy.astype(np.int64)
        self.ll = self.ll - lossy.astype(np.int64)
        self.dl = self.dl - (is_dup & live).astype(np.int64)
        if self.frozen is not None:
            cidx = np.nonzero(crashy)[0]
            if cidx.size:
                self.frozen[cidx, node[cidx] - 1] = -1

        # -- board accounting
        wbits = np.where(board_write, bits, 0)
        dup_extra = np.where(is_dup & live, bits, 0)
        self.maxb = np.maximum(self.maxb, wbits)
        self.totb = self.totb + wbits + dup_extra
        self.lastb = wbits
        self.lastt = wbits + dup_extra

        widx = np.nonzero(board_write)[0]
        if self.view is not None and widx.size:
            for i in widx:
                vid = cell._view_child_of(int(self.view[i]), int(rec[i]))
                if is_dup[i]:
                    vid = cell._view_child_of(vid, int(rec[i]))
                self.view[i] = vid
        if self.bp is not None and widx.size:
            for i in widx:
                kid = cell._key_id_of(int(rec[i]))
                bp = cell._bp_child_of(int(self.bp[i]), kid)
                if is_dup[i]:
                    bp = cell._bp_child_of(bp, kid)
                self.bp[i] = bp

        # -- activation pass (board changed: write/dup lanes only)
        event = self.depth + 1
        if not cell.model.simultaneous and widx.size:
            for i in widx:
                if self.dead[i]:
                    continue
                self._activation_lane(int(i), int(event[i]))

        self.depth = event
        if self.sched is not None:
            self.sched = cell._sched_append(self.sched, choices)
        return self

    def _advance_reliable_simasync(self, choices) -> "BatchedExecutionState":
        """The all-write fast path for fault-free simultaneous
        asynchronous lanes: static per-node records, no activation
        pass, no view dependence — a handful of array expressions.
        Effect-for-effect identical to the general :meth:`advance_all`
        body (every lane is a write of a static record)."""
        cell = self.cell
        bitv = np.uint64(1) << (choices - 1).astype(np.uint64)
        rec = cell._static_rec_arr[choices - 1]
        barr = cell._bits_np_for(int(cell._static_rec_arr.max()))
        bits = barr[rec]
        unknown = np.nonzero(bits < 0)[0]
        if unknown.size:
            for i in unknown:
                try:
                    cell._bits_of(int(rec[i]))
                except Exception as exc:
                    self._kill(int(i), exc)
            cell._refresh_bits_np()
            bits = cell._bits_np[rec]
        if cell.bit_budget is not None:
            budget = cell.bit_budget
            for i in np.nonzero(bits > budget)[0]:
                if not self.dead[i]:
                    self._kill(int(i), MessageTooLarge(
                        int(choices[i]), int(bits[i]), budget))
        if self.violations:
            live = ~self.dead
            bitv = np.where(live, bitv, np.uint64(0))
            bits = np.where(live, bits, 0)
        self.written = self.written | bitv
        self.active = self.active & ~bitv
        self.maxb = np.maximum(self.maxb, bits)
        self.totb = self.totb + bits
        self.lastb = bits
        self.lastt = bits
        if self.view is not None:
            view_child = cell._view_child_of
            view = self.view.tolist()
            for i, (vid, r) in enumerate(zip(view, rec.tolist())):
                if not self.dead[i]:
                    view[i] = view_child(vid, r)
            self.view = np.array(view, dtype=np.int64)
        if self.bp is not None:
            key_id = cell._key_id_of
            bp_child = cell._bp_child_of
            bp = self.bp.tolist()
            for i, (b, r) in enumerate(zip(bp, rec.tolist())):
                if not self.dead[i]:
                    bp[i] = bp_child(b, key_id(r))
            self.bp = np.array(bp, dtype=np.int64)
        self.depth = self.depth + 1
        if self.sched is not None:
            self.sched = cell._sched_append(self.sched, choices)
        return self

    def _activation_lane(self, lane: int, event: int) -> None:
        """The scalar activation pass for one lane of a free-activation
        model (nodes ascending, against the post-write board)."""
        cell = self.cell
        settled = int(self.active[lane] | self.written[lane]
                      | self.crashed[lane])
        vid = int(self.view[lane])
        mask = int(self.active[lane])
        for v in cell.graph.nodes():
            if settled & (1 << (v - 1)):
                continue
            try:
                if not cell._wants(v, vid):
                    continue
                mask |= 1 << (v - 1)
                self.act[lane, v - 1] = event
                if cell.model.asynchronous:
                    self.frozen[lane, v - 1] = cell._rec_for(v, vid)
            except Exception as exc:
                self._kill(lane, exc)
                break
        self.active[lane] = np.uint64(mask)

    # -- scalar-equivalent digests -------------------------------------

    def _frozen_part_id(self, lane: int, active_mask: int) -> int:
        cell = self.cell
        if cell._static_rec is not None:
            fid = cell._frozen_by_active.get(active_mask)
            if fid is None:
                part = tuple(
                    (v, cell._frozen_key_id_of(cell._static_rec[v - 1]))
                    for v in _iter_bits(active_mask)
                )
                fid = cell._frozen_intern.setdefault(
                    part, len(cell._frozen_intern))
                cell._frozen_by_active[active_mask] = fid
            return fid
        part = tuple(
            (v, cell._frozen_key_id_of(int(self.frozen[lane, v - 1])))
            for v in _iter_bits(active_mask)
        )
        return cell._frozen_intern.setdefault(part, len(cell._frozen_intern))

    def _act_part_id(self, lane: int) -> int:
        cell = self.cell
        if cell.model.simultaneous:
            return -1
        row = self.act[lane]
        part = tuple((v, int(row[v - 1])) for v in cell.graph.nodes()
                     if row[v - 1] >= 0)
        return cell._act_intern.setdefault(part, len(cell._act_intern))

    def dedupe_key_of(self, lane: int) -> tuple:
        """A compact integer tuple equal between two lanes iff their
        scalar ``config_key()`` digests are equal — the beam dedupe
        currency (raises the same ``ProtocolViolation`` the scalar
        digest would on a non-payload frozen message)."""
        if self.bp is None:
            raise ValueError("board chains were not tracked for this batch")
        cell = self.cell
        active = int(self.active[lane])
        frozen_id = (self._frozen_part_id(lane, active)
                     if cell.model.asynchronous else -1)
        base = (int(self.bp[lane]), int(self.written[lane]), active,
                frozen_id, self._act_part_id(lane))
        if cell.faults.enabled:
            return base + (int(self.crashed[lane]), int(self.cl[lane]),
                           int(self.ll[lane]), int(self.dl[lane]))
        return base

    def _dedupe_key_builder(self):
        """A per-lane closure producing :meth:`dedupe_key_of` tuples
        from pre-gathered columns — the beam calls it once per sorted
        child, so the per-call numpy scalar indexing adds up."""
        if self.bp is None:
            raise ValueError("board chains were not tracked for this batch")
        cell = self.cell
        if (cell.faults.enabled or not cell.model.simultaneous
                or (cell.model.asynchronous and cell._static_rec is None)):
            return self.dedupe_key_of
        bp_l = self.bp.tolist()
        written_l = self.written.tolist()
        active_l = self.active.tolist()
        if not cell.model.asynchronous:
            def build(lane: int) -> tuple:
                return (bp_l[lane], written_l[lane], active_l[lane], -1, -1)
            return build
        frozen_id = self._frozen_part_id

        def build(lane: int) -> tuple:
            active = active_l[lane]
            return (bp_l[lane], written_l[lane], active,
                    frozen_id(lane, active), -1)
        return build

    def _board_recs(self, lane: int) -> list[int]:
        """Board entry records in write order (duplicates twice)."""
        cell = self.cell
        if self.view is not None:
            return cell._view_recs(int(self.view[lane]))
        recs: list[int] = []
        n = cell.n
        for choice in self.schedule_of(lane):
            if choice > 0:
                recs.append(cell._static_rec[choice - 1])
            elif -choice > 2 * n:  # duplication
                rec = cell._static_rec[-choice - 2 * n - 1]
                recs.extend((rec, rec))
        return recs

    def config_key_of(self, lane: int) -> tuple:
        """The lane's configuration digest, bit-identical to the scalar
        ``ExecutionState.config_key()``."""
        cell = self.cell
        keys = []
        for rec in self._board_recs(lane):
            cell._key_id_of(rec)
            keys.append(cell._rec_key[rec])
        frozen_part = None
        if cell.model.asynchronous:
            part = []
            for v in _iter_bits(int(self.active[lane])):
                rec = (cell._static_rec[v - 1] if cell._static_rec is not None
                       else int(self.frozen[lane, v - 1]))
                cell._frozen_key_id_of(rec)
                part.append((v, cell._rec_key[rec]))
            part.sort()
            frozen_part = tuple(part)
        row = self.act[lane]
        base = (
            tuple(keys),
            frozenset(_iter_bits(int(self.written[lane]))),
            frozenset(_iter_bits(int(self.active[lane]))),
            frozen_part,
            tuple((v, int(row[v - 1])) for v in cell.graph.nodes()
                  if row[v - 1] >= 0),
        )
        if cell.faults.enabled:
            return base + (
                frozenset(_iter_bits(int(self.crashed[lane]))),
                (int(self.cl[lane]), int(self.ll[lane]),
                 int(self.dl[lane])),
            )
        return base

    def suffix_bound_of(self, lane: int) -> Optional[tuple]:
        """The lane's admissible completion bound, field-identical to
        the scalar ``ExecutionState.suffix_bound()``."""
        cell = self.cell
        unterminated = (cell.n - int(self.written[lane]).bit_count()
                        - int(self.crashed[lane]).bit_count())
        if unterminated == 0:
            return (False, 0, 0)
        active_mask = int(self.active[lane])
        active_count = active_mask.bit_count()
        deadlock_possible = active_count != unterminated
        budget = cell.bit_budget
        top = 0
        total = 0
        if cell.model.asynchronous:
            for v in _iter_bits(active_mask):
                rec = (cell._static_rec[v - 1]
                       if cell._static_rec is not None
                       else int(self.frozen[lane, v - 1]))
                try:
                    bits = cell._bits_of(rec)
                except ProtocolViolation:
                    return None  # the write itself will raise it
                if bits > top:
                    top = bits
                total += bits
            inactive = unterminated - active_count
        else:
            inactive = unterminated
        if inactive:
            if budget is None:
                return None
            if budget > top:
                top = budget
            total += inactive * budget
        dups_left = int(self.dl[lane])
        if dups_left:
            total += dups_left * top
        return (deadlock_possible, top, total)
