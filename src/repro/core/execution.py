"""Stepwise execution core: one engine, many drivers.

The Section 2 semantics used to live inside a monolithic recursive
``_execute`` loop in :mod:`repro.core.simulator`; every consumer that
wanted to *steer* an execution (the exhaustive enumerator, the guided
adversary searches) had to smuggle its control flow through a chooser
callback or an exception.  :class:`ExecutionState` turns the simulator
into an explicit state machine instead:

* :meth:`ExecutionState.initial` builds the configuration after the
  round-0 activation pass;
* :attr:`ExecutionState.candidates` is the adversary's current choice
  set — active, unwritten nodes ascending, followed by any affordable
  fault events (crash-stop, lossy write, duplicated write) when the
  state carries a :class:`~repro.faults.spec.FaultSpec` budget;
* :meth:`ExecutionState.advance` applies one adversary choice — compute
  the writer's message (frozen value in asynchronous models, recomputed
  in synchronous ones), charge the bit budget, append to the board, run
  the activation pass;
* :meth:`ExecutionState.restore` rolls back to an ancestor: a
  checkpoint is nothing but the depth (:attr:`ExecutionState.depth`),
  and restore is an O(steps-undone) journal rollback — the
  checkpoint/undo DFS that used to be hard-wired into the enumerator.
  Protocols are pure functions of their view, so undoing the
  configuration undoes everything.  Each journal entry also keeps the
  candidate pair cached before its event, and undo puts it back: after
  a rollback the candidate sets are not recomputed;
* :meth:`ExecutionState.copy` forks an independent state (beam searches
  hold a frontier of them);
* :meth:`ExecutionState.result` freezes a terminal configuration into a
  :class:`RunResult`.  Once :meth:`ExecutionState.memoize_outputs` is
  called, protocols that declare
  :attr:`~repro.core.protocol.Protocol.output_order_invariant` have
  their output decoded once per distinct board multiset: the state (and
  every :meth:`~ExecutionState.copy` of it) shares one memo keyed on
  the sorted payload digests of the board (:func:`board_output`).

``run``, ``all_executions`` and ``count_executions`` in
:mod:`repro.core.simulator` are thin drivers over this machine, as are
the searchable adversary strategies in :mod:`repro.adversaries`.  The
observable semantics — candidate order, frozen-message rules, budget
enforcement, deadlock detection, bit accounting — are pinned to the
pre-refactor engine by the simulator equivalence tests and the sketch
golden fixtures.
"""

from __future__ import annotations

from collections.abc import Iterable
from copy import deepcopy
from dataclasses import dataclass
from typing import Any, Optional, Union

from ..encoding.bits import payload_bits, payload_key
from ..faults.spec import FaultSpec, decode_choice, resolve_faults
from ..graphs.labeled_graph import LabeledGraph
from .errors import MessageTooLarge, ProtocolViolation, SchedulerError
from .models import ModelSpec
from .protocol import NodeView, Protocol
from .whiteboard import BoardView, Entry, Whiteboard

__all__ = ["RunResult", "ExecutionState", "replay_schedule", "board_output"]

#: Distinguishes "cache entry was absent" from "cached value was None"
#: when a crash undo restores a node's frozen-message caches.
_MISSING = object()


@dataclass(frozen=True)
class RunResult:
    """Outcome of one execution.

    Attributes
    ----------
    success:
        All nodes wrote — the paper's *successful* final configuration.
    output:
        ``protocol.output`` on the final whiteboard, or ``None`` when the
        execution deadlocked.
    board:
        Full whiteboard with metadata.
    write_order:
        Node identifiers in the order their messages appeared.
    activation_round:
        Write-event index at which each node became active (0 = before
        any write).
    max_message_bits / total_bits:
        Exact sizes of the largest message and of the whole board.
    schedule:
        The full adversary schedule, fault events included (equals
        ``write_order`` for reliable runs).
    crashed:
        Nodes halted by crash-stop fault events (empty for reliable
        runs).
    output_error:
        ``"ExcType: message"`` when ``protocol.output`` raised on a
        fault-perturbed board (faulted runs only); ``output`` is then
        ``None``.
    """

    success: bool
    output: Any
    board: Whiteboard
    write_order: tuple[int, ...]
    activation_round: dict[int, int]
    max_message_bits: int
    total_bits: int
    model: ModelSpec
    protocol_name: str
    n: int
    schedule: tuple[int, ...] = ()
    crashed: frozenset[int] = frozenset()
    output_error: Optional[str] = None

    @property
    def corrupted(self) -> bool:
        return not self.success

    @property
    def deadlocked_nodes(self) -> frozenset[int]:
        """Nodes stuck unterminated (empty iff the run succeeded).

        A node terminates by writing, by having its write lost (it
        believes it wrote), or by crashing — only the remainder is
        deadlocked.
        """
        terminated = set(self.write_order) | set(self.crashed)
        for choice in self.schedule:
            if choice < 0:
                kind, node = decode_choice(choice, self.n)
                if kind == "loss":
                    terminated.add(node)
        return frozenset(
            v for v in range(1, self.n + 1) if v not in terminated
        )


class ExecutionState:
    """One live configuration of the round-based execution engine."""

    __slots__ = (
        "graph", "protocol", "model", "bit_budget", "faults", "board", "written", "active", "crashed", "frozen",
        "frozen_bits", "activation_round", "choices", "crashes_left",
        "losses_left", "dups_left", "last_event_bits", "last_event_total",
        "_journal", "_candidates", "_entry_keys", "_board_views",
        "_frozen_keys", "_output_memo",
    )

    def __init__(self) -> None:  # use ExecutionState.initial(...)
        raise TypeError("use ExecutionState.initial(graph, protocol, model)")

    @classmethod
    def initial(
        cls,
        graph: LabeledGraph,
        protocol: Protocol,
        model: ModelSpec,
        bit_budget: Optional[int] = None,
        faults: "Union[None, str, FaultSpec]" = None,
    ) -> "ExecutionState":
        """The configuration after the round-0 activation pass."""
        self = object.__new__(cls)
        self.graph = graph
        self.protocol = protocol
        self.model = model
        self.bit_budget = bit_budget
        self.faults = resolve_faults(faults)
        #: ``(output, output_error)`` per board multiset key; ``None``
        #: until :meth:`memoize_outputs` arms it.
        self._output_memo = None
        self.board = Whiteboard()
        self.written = set()
        self.active = set()
        self.crashed = set()
        self.frozen = {}
        self.frozen_bits = {}
        self.activation_round = {}
        self.choices = []
        self.crashes_left = self.faults.max_crashes
        self.losses_left = self.faults.max_losses
        self.dups_left = self.faults.max_duplications
        self.last_event_bits = 0
        self.last_event_total = 0
        self._journal = []
        self._candidates = None
        self._entry_keys = []
        self._board_views = [BoardView(())]
        self._frozen_keys = {}
        self._activation_pass(0)
        return self

    def memoize_outputs(self) -> "ExecutionState":
        """Decode each distinct board multiset once from now on; returns
        ``self``.

        For drivers that freeze many leaves of one cell (the exhaustive
        walkers).  Engages only for protocols that declare
        ``output_order_invariant``; :meth:`copy` shares the memo.  A
        one-shot replay is better off without it: digesting a fresh
        board costs about half a BUILD decode, and nothing would reuse
        it.
        """
        if self._output_memo is None and self.protocol.output_order_invariant:
            self._output_memo = {}
        return self

    # -- inspection ----------------------------------------------------

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def depth(self) -> int:
        """Number of schedule events applied so far (faults included)."""
        return len(self.choices)

    @property
    def schedule(self) -> tuple[int, ...]:
        """The adversary choices applied so far (fault events encoded
        as negative integers, see :mod:`repro.faults.spec`)."""
        return tuple(self.choices)

    def _candidate_pair(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(write candidates, full candidates)``, cached per step.

        Write candidates are the active, unwritten nodes (ascending) —
        exactly the reliable engine's choice set.  When fault budget
        remains *and* at least one write candidate exists, the full
        tuple appends fault events after the writes: crash events for
        every surviving unterminated node, then loss and duplication
        events for every write candidate.  Writes-first ordering keeps
        ``candidates[0]`` the smallest normal write, so ascending
        completions never consume fault budget.
        """
        pair = self._candidates
        if pair is None:
            writes = tuple(sorted(self.active - self.written))
            full = writes
            if writes and (self.crashes_left or self.losses_left
                           or self.dups_left):
                events = list(writes)
                n = self.graph.n
                if self.crashes_left:
                    events.extend(
                        -v for v in sorted(
                            set(self.graph.nodes())
                            - self.written - self.crashed
                        )
                    )
                if self.losses_left:
                    events.extend(-(n + v) for v in writes)
                if self.dups_left:
                    events.extend(-(2 * n + v) for v in writes)
                full = tuple(events)
            pair = (writes, full)
            self._candidates = pair
        return pair

    @property
    def candidates(self) -> tuple[int, ...]:
        """Choices the adversary may pick: active unwritten nodes
        (ascending), then any affordable fault events."""
        pair = self._candidates
        return (pair if pair is not None else self._candidate_pair())[1]

    @property
    def write_candidates(self) -> tuple[int, ...]:
        """Active, unwritten nodes only — the reliable choice set."""
        return self._candidate_pair()[0]

    @property
    def faults_remaining(self) -> bool:
        """Whether any fault budget is still unspent."""
        return bool(self.crashes_left or self.losses_left or self.dups_left)

    @property
    def done(self) -> bool:
        """Every node terminated — wrote (possibly lost) or crashed."""
        return len(self.written) + len(self.crashed) == self.graph.n

    @property
    def deadlocked(self) -> bool:
        """Unterminated nodes remain but none can write (corrupted).

        Fault events cannot rescue a deadlock: once no write candidate
        exists the execution is over, budget or not.
        """
        return not self.done and not self.write_candidates

    @property
    def terminal(self) -> bool:
        """:attr:`done` or :attr:`deadlocked` (read without the two
        property calls: search kernels ask this at every node)."""
        if len(self.written) + len(self.crashed) == self.graph.n:
            return True
        pair = self._candidates
        return not (pair if pair is not None else self._candidate_pair())[0]

    def config_key(self, quotient: bool = False) -> tuple:
        """Canonical, always-hashable digest of this configuration.

        Covers everything the paper's configuration is made of: the
        board contents (each payload via the codec's
        :func:`~repro.encoding.bits.payload_key`, which carries the
        exact bit size), the written and active sets, the frozen
        messages of active nodes in asynchronous models, and the
        activation rounds.  Unlike hashing raw payloads, the codec
        digest is defined for *every* payload the engine can write —
        dict/list payloads included — so memoisation never silently
        switches off (the hole the old ``deadlock.py`` ad-hoc key had).

        Two states with equal keys have identical futures under
        identical adversary choices: a protocol is a pure function of
        its view, so the configuration is all there is.  Payload
        digests are cached per write event, so repeated calls along a
        search path stay cheap.

        ``quotient=True`` digests the board as a payload *multiset*
        (:meth:`_board_multiset_key`) instead of in board order.  Two
        states with equal quotient keys have identical futures only
        when nothing downstream reads the board order: the model is
        simultaneous and asynchronous (every message is frozen in
        round 0) and the protocol declares
        :attr:`~repro.core.protocol.Protocol.output_order_invariant` —
        the exhaustive quotient-DAG fold
        (:mod:`repro.runtime.quotient`) keys on it under exactly those
        conditions.

        Raises :class:`ProtocolViolation` if a frozen message is not a
        payload the codec can encode (the same messages would be
        rejected by :meth:`advance` when written).
        """
        keys = (self._board_multiset_key() if quotient
                else tuple(self._board_keys()))
        frozen_part = None
        if self.model.asynchronous:
            frozen_keys = self._frozen_keys
            part = []
            for v in self.active:
                key = frozen_keys.get(v)
                if key is None:
                    try:
                        key = payload_key(self.frozen[v])
                    except TypeError as exc:
                        raise ProtocolViolation(
                            f"{self.protocol.name}: node {v} froze a "
                            f"non-payload message: {exc}"
                        ) from exc
                    frozen_keys[v] = key
                part.append((v, key))
            part.sort()
            frozen_part = tuple(part)
        base = (
            keys,
            frozenset(self.written),
            frozenset(self.active),
            frozen_part,
            tuple(sorted(self.activation_round.items())),
        )
        if self.faults.enabled:
            # Crashed nodes and remaining budgets are part of the
            # configuration: two states that differ only in what the
            # adversary can still break have different futures.  The
            # component is appended (rather than always present) so
            # fault-free keys stay bit-identical to the reliable engine.
            return base + (
                frozenset(self.crashed),
                (self.crashes_left, self.losses_left, self.dups_left),
            )
        return base

    def _board_keys(self) -> list:
        """Codec digests of the board entries, in board order (cached
        per write event, truncated on undo)."""
        keys = self._entry_keys
        entries = self.board.entries
        while len(keys) < len(entries):
            keys.append(payload_key(entries[len(keys)].payload))
        return keys

    def _board_multiset_key(self) -> tuple:
        """The board's payload multiset as a sorted digest tuple.

        In asynchronous models every entry is its author's frozen
        message, so the digests come from the per-writer
        ``_frozen_keys`` cache — computed once per activation rather
        than once per leaf.  Synchronous boards use the per-entry
        cache.  Board payloads already passed the codec when written,
        so the digest cannot fail here.
        """
        if not self.model.asynchronous:
            return tuple(sorted(self._board_keys()))
        frozen_keys = self._frozen_keys
        keys = []
        for entry in self.board.entries:
            author = entry.author
            key = frozen_keys.get(author)
            if key is None:
                key = frozen_keys[author] = payload_key(self.frozen[author])
            keys.append(key)
        keys.sort()
        return tuple(keys)

    # -- the step relation --------------------------------------------

    @staticmethod
    def _own_payload(payload: Any) -> Any:
        """Take ownership of a freshly produced message.

        The engine stores payloads by reference and caches their bit
        sizes and codec digests at write/freeze time, so payloads must
        never change afterwards.  A list- or dict-rooted payload
        (supported since the codec's escape tag) is deep-copied here so
        the common accumulator-reuse mistake cannot silently corrupt
        the accounting or the transposition table.  The copy is
        deliberately top-level-typed — walking every tuple to hunt for
        nested mutables would tax the write hot path for the all-
        immutable payloads every shipped protocol produces — so the
        remaining contract is the protocol's: never mutate a container
        nested inside a returned tuple, and never mutate payloads read
        from the board.
        """
        if type(payload) is list or type(payload) is dict:
            return deepcopy(payload)
        return payload

    def board_view(self) -> BoardView:
        """The protocol-facing view of the current board.

        One view per board state, built once per write event and
        truncated on undo: ``_board_views[k]`` is the view of the first
        ``k`` entries and extends ``_board_views[k - 1]``, so every
        protocol call on one board state shares one view (and whatever
        :meth:`BoardView.fold` memoized on it).
        """
        views = self._board_views
        entries = self.board.entries
        k = len(views)
        while k <= len(entries):
            views.append(views[-1].extended(entries[k - 1].payload))
            k += 1
        return views[-1]

    def _view_of(self, v: int) -> NodeView:
        g = self.graph
        return NodeView(v, g.neighbors(v), g.n, self.board_view())

    def _activation_pass(self, event: int) -> tuple[int, ...]:
        """Activate eligible nodes; return them so restore can undo.

        All awake nodes examine the same board snapshot: activations
        within one round are simultaneous and cannot see each other.
        """
        model = self.model
        if model.simultaneous and event:
            return ()  # everyone activated in round 0
        added: list[int] = []
        proto = self.protocol
        active, written = self.active, self.written
        crashed = self.crashed
        for v in self.graph.nodes():
            if v in active or v in written or v in crashed:
                continue
            view = self._view_of(v)
            if model.simultaneous or proto.wants_to_activate(view):
                active.add(v)
                self.activation_round[v] = event
                added.append(v)
                if model.asynchronous:
                    # "Once a node raises its hand it cannot change its
                    # mind": compute and freeze the message now.
                    self.frozen[v] = self._own_payload(proto.message(view))
        return tuple(added)

    def _message_bits(self, writer: int, payload: Any) -> int:
        """Size ``payload``, cached per writer in asynchronous models
        (callers read that cache first)."""
        try:
            bits = payload_bits(payload)
        except TypeError as exc:
            raise ProtocolViolation(
                f"{self.protocol.name}: node {writer} produced a non-payload "
                f"message: {exc}"
            ) from exc
        if self.model.asynchronous:
            self.frozen_bits[writer] = bits
        return bits

    def advance(self, choice: int) -> "ExecutionState":
        """Apply one adversary choice (a write or fault event); returns
        ``self``.

        Raises :class:`SchedulerError` when ``choice`` is not currently a
        candidate, :class:`MessageTooLarge` when the message exceeds the
        bit budget, and :class:`ProtocolViolation` on a non-payload
        message — all before the board is touched.
        """
        pair = self._candidates
        if pair is None:
            pair = self._candidate_pair()
        if choice not in pair[1]:
            raise SchedulerError(
                f"scheduler chose {choice}, not among active nodes {pair[1]}"
            )
        if choice < 0:
            return self._advance_fault(choice)
        payload, bits = self._produce_message(choice)
        event = len(self.choices) + 1
        entries = self.board.entries
        entries.append(Entry(len(entries), choice, payload, bits, event))
        self.written.add(choice)
        self.active.discard(choice)
        activated = self._activation_pass(event)
        self.choices.append(choice)
        self._journal.append(("w", choice, activated, pair))
        self.last_event_bits = bits
        self.last_event_total = bits
        self._candidates = None
        return self

    def _produce_message(self, node: int) -> tuple[Any, int]:
        """The message ``node`` would write now, budget-checked."""
        if self.model.asynchronous:
            payload = self.frozen[node]
            bits = self.frozen_bits.get(node)
            if bits is None:
                bits = self._message_bits(node, payload)
        else:
            payload = self._own_payload(self.protocol.message(self._view_of(node)))
            bits = self._message_bits(node, payload)
        if self.bit_budget is not None and bits > self.bit_budget:
            raise MessageTooLarge(node, bits, self.bit_budget)
        return payload, bits

    def _advance_fault(self, choice: int) -> "ExecutionState":
        """Apply one fault event; the fault-kind journal entries make
        the undo path exact, so restore and ``config_key()`` keep
        working unchanged under faults."""
        kind, node = decode_choice(choice, self.graph.n)
        pair = self._candidates  # cached by advance's candidate check
        if kind == "crash":
            # Crash-stop: the node halts for good; its pending frozen
            # message (asynchronous models) is discarded.  The board is
            # untouched, so no activation pass can fire.
            was_active = node in self.active
            saved = None
            if was_active:
                self.active.discard(node)
                if self.model.asynchronous:
                    saved = (
                        self.frozen.pop(node),
                        self.frozen_bits.pop(node, _MISSING),
                        self._frozen_keys.pop(node, _MISSING),
                    )
            self.crashed.add(node)
            self.crashes_left -= 1
            self.choices.append(choice)
            self._journal.append(("c", node, (was_active, saved), pair))
            self.last_event_bits = 0
            self.last_event_total = 0
        elif kind == "loss":
            # Lossy write: the message is produced (and budget-charged)
            # but never reaches the board; the writer terminates
            # believing it wrote.  No board change, no activations.
            self._produce_message(node)
            self.written.add(node)
            self.active.discard(node)
            self.losses_left -= 1
            self.choices.append(choice)
            self._journal.append(("l", node, None, pair))
            self.last_event_bits = 0
            self.last_event_total = 0
        else:  # dup
            # Duplicated write: two identical entries at the same event
            # index.  Doubles the total-bits accounting while the
            # max-message accounting sees a single message.
            payload, bits = self._produce_message(node)
            event = len(self.choices) + 1
            self.board.write(node, payload, event, bits)
            self.board.write(node, payload, event, bits)
            self.written.add(node)
            self.active.discard(node)
            activated = self._activation_pass(event)
            self.dups_left -= 1
            self.choices.append(choice)
            self._journal.append(("d", node, activated, pair))
            self.last_event_bits = bits
            self.last_event_total = 2 * bits
        self._candidates = None
        return self

    # -- checkpointing -------------------------------------------------

    def restore(self, depth: int) -> "ExecutionState":
        """Roll back to the ancestor at schedule depth ``depth`` (a
        checkpoint is the :attr:`depth` read before descending).

        Undoes the journal step by step; each undone event puts back
        the candidate pair cached before it, so the next
        :attr:`candidates` read after a rollback costs nothing.
        """
        if depth > len(self.choices):
            raise ValueError(
                f"checkpoint depth {depth} is not an ancestor of the "
                f"current depth {len(self.choices)}"
            )
        while len(self.choices) > depth:
            self._undo_one()
        return self

    def _undo_one(self) -> None:
        """Undo the last schedule event and its side-effects, and put
        back the candidate pair cached before it."""
        kind, node, data, self._candidates = self._journal.pop()
        self.choices.pop()
        if kind == "c":
            was_active, saved = data
            self.crashed.discard(node)
            self.crashes_left += 1
            if was_active:
                self.active.add(node)
                if saved is not None:
                    payload, fbits, fkey = saved
                    self.frozen[node] = payload
                    if fbits is not _MISSING:
                        self.frozen_bits[node] = fbits
                    if fkey is not _MISSING:
                        self._frozen_keys[node] = fkey
            return
        if kind == "l":
            self.losses_left += 1
            self.written.discard(node)
            self.active.add(node)
            return
        # "w" and "d": undo activations, board entries, and the write.
        asynchronous = self.model.asynchronous
        for v in data:
            self.active.discard(v)
            del self.activation_round[v]
            if asynchronous:
                self.frozen.pop(v, None)
                self.frozen_bits.pop(v, None)
                self._frozen_keys.pop(v, None)
        entries = self.board.entries
        entries.pop()
        if kind == "d":
            entries.pop()
            self.dups_left += 1
        size = len(entries)
        if len(self._entry_keys) > size:
            del self._entry_keys[size:]
        if len(self._board_views) > size + 1:
            del self._board_views[size + 1:]
        self.written.discard(node)
        self.active.add(node)

    def copy(self) -> "ExecutionState":
        """An independent fork of this configuration: it shares the
        protocol object and copies the cheap containers."""
        clone = object.__new__(ExecutionState)
        clone.graph = self.graph
        clone.protocol = self.protocol
        clone.model = self.model
        clone.bit_budget = self.bit_budget
        clone.faults = self.faults
        clone.board = Whiteboard(entries=list(self.board.entries))
        clone.written = set(self.written)
        clone.active = set(self.active)
        clone.crashed = set(self.crashed)
        clone.frozen = dict(self.frozen)
        clone.frozen_bits = dict(self.frozen_bits)
        clone.activation_round = dict(self.activation_round)
        clone.choices = list(self.choices)
        clone.crashes_left = self.crashes_left
        clone.losses_left = self.losses_left
        clone.dups_left = self.dups_left
        clone.last_event_bits = self.last_event_bits
        clone.last_event_total = self.last_event_total
        clone._journal = list(self._journal)
        clone._candidates = self._candidates
        clone._entry_keys = list(self._entry_keys)
        clone._board_views = list(self._board_views)
        clone._frozen_keys = dict(self._frozen_keys)
        clone._output_memo = self._output_memo
        return clone

    # -- results -------------------------------------------------------

    def result(self) -> RunResult:
        """Freeze this terminal configuration into a :class:`RunResult`.

        Raises :class:`ValueError` when the state still has candidates —
        a non-terminal configuration has no outcome yet.
        """
        if not self.terminal:
            raise ValueError(
                f"execution is not terminal: candidates {self.candidates} "
                "remain"
            )
        success = self.done
        output = None
        output_error = None
        if success:
            memo = self._output_memo
            output, output_error = board_output(
                self.protocol, (e.payload for e in self.board.entries),
                self.graph.n, self.faults.enabled, memo,
                self._board_multiset_key() if memo is not None else None,
            )
        entries = list(self.board.entries)
        bits = [e.bits for e in entries]
        return RunResult(
            success=success,
            output=output,
            board=Whiteboard(entries=entries),
            write_order=tuple([e.author for e in entries]),
            activation_round=dict(self.activation_round),
            max_message_bits=max(bits, default=0),
            total_bits=sum(bits),
            model=self.model,
            protocol_name=self.protocol.name,
            n=self.graph.n,
            schedule=tuple(self.choices),
            crashed=frozenset(self.crashed),
            output_error=output_error,
        )


def board_output(
    proto: Protocol,
    payloads: Iterable[Any],
    n: int,
    faulted: bool,
    memo: Optional[dict] = None,
    key: Any = None,
) -> tuple[Any, Optional[str]]:
    """``(output, output_error)`` of ``proto`` on a successful board.

    ``payloads`` (board order) is read only when the output is actually
    decoded.  Under a fault budget the decoder may meet a board the
    protocol never promised to survive (missing, duplicated, or
    truncated entries); a decoder crash is then a *verdict* — recorded
    as ``output_error``, not raised.  Fault-free decoder crashes
    propagate.

    ``memo`` (``None`` disables it) maps ``key`` — the board's payload
    multiset — to the pair, for protocols whose output depends on
    nothing else.  A raising fault-free decode is never cached, so every
    leaf that meets it raises.
    """
    if memo is not None:
        pair = memo.get(key)
        if pair is not None:
            return pair
    view = BoardView(tuple(payloads))
    if faulted:
        try:
            pair = (proto.output(view, n), None)
        except Exception as exc:  # noqa: BLE001 - a verdict, see above
            pair = (None, f"{type(exc).__name__}: {exc}")
    else:
        pair = (proto.output(view, n), None)
    if memo is not None:
        memo[key] = pair
    return pair


def replay_schedule(
    graph: LabeledGraph,
    protocol: Protocol,
    model: ModelSpec,
    schedule: Iterable[int],
    bit_budget: Optional[int] = None,
    faults: "Union[None, str, FaultSpec]" = None,
) -> RunResult:
    """Re-execute a concrete adversary schedule to a terminal result.

    The schedule must be valid (every choice a candidate when applied —
    :class:`SchedulerError` otherwise) and complete (the state must be
    terminal afterwards — :class:`ValueError` otherwise).  Faulted
    schedules carry their fault events inline, so replay under the same
    ``faults`` budget reproduces crashes, losses, and duplications
    bit-identically.  This is how witness schedules found by adversary
    searches are turned back into full transcripts for checking and
    narration.
    """
    state = ExecutionState.initial(graph, protocol, model, bit_budget,
                                   faults=faults)
    for choice in schedule:
        state.advance(choice)
    return state.result()
