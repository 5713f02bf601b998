"""Layer-certified BFS protocols (Theorems 7 and 10, Corollary 4).

All three protocols share one idea: activate the nodes *layer by layer*,
using edge-counting certificates written on the whiteboard to detect
that a layer is complete.  Per epoch (connected component, roots chosen
in increasing identifier order) each node writes one record

``("B", ID, l, p, d-1, [d0,] d+1)``

where ``l`` is its BFS layer, ``p`` its parent (or ``"ROOT"``), ``d-1``
its edge count toward the previous layer, ``d0`` (general-graph variant
only) its count of *already written* same-layer neighbours, and ``d+1``
the remainder of its degree.

Layer ``k`` of the current epoch is complete exactly when

``Σ_{u∈L_k} d-1(u) = Σ_{u∈L_{k-1}} d+1(u) - 2·Σ_{u∈L_{k-1}} d0(u)``

(both sums over written records; the ``d0`` term vanishes in the
bipartite variants).  Every layer-``k`` node has at least one edge to
layer ``k-1``, so the left side stays strictly short until the whole
layer is on the board — the certificate cannot fire early.  A component
is exhausted when additionally ``Σ_{u∈L_last} d+1 - 2·Σ d0 = 0``, which
licenses the smallest unwritten identifier to start the next epoch.

Variants:

* :class:`EobBfsProtocol` — Theorem 7, ``ASYNC[log n]``: inputs are
  arbitrary, but the answer is :data:`NOT_EOB` unless the graph is
  even-odd-bipartite.  Nodes seeing a same-parity neighbour activate
  immediately with an ``("INV", id)`` message; once any such message is
  visible every awake node aborts with ``("ABT", id)``, so the protocol
  terminates (successfully, with the negative answer) on every input —
  the paper sketches this and we make it concrete.
* :class:`BipartiteBfsAsyncProtocol` — Corollary 4, ``ASYNC[log n]``:
  same machinery without the parity guard.  Correct on every bipartite
  graph; on non-bipartite inputs it may deadlock (the behaviour Section
  6 describes, measured in the open-problems benchmark).
* :class:`SyncBfsProtocol` — Theorem 10, ``SYNC[log n]``: arbitrary
  graphs.  Needs the synchronous right to recompute the message at
  write time, because ``d0`` counts same-layer records that appear
  *after* the node activates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, NamedTuple, Optional, Union

from ..encoding.bits import Payload
from ..graphs.properties import ROOT, BfsForest
from ..core.protocol import NodeView, Protocol
from ..core.whiteboard import BoardView
from .naive import NOT_EOB

__all__ = [
    "BfsRecord",
    "BoardState",
    "parse_board",
    "EobBfsProtocol",
    "BipartiteBfsAsyncProtocol",
    "SyncBfsProtocol",
    "NOT_EOB",
]

_TAG_BFS = "B"
_TAG_INVALID = "INV"
_TAG_ABORT = "ABT"


class BfsRecord(NamedTuple):
    """One parsed BFS whiteboard record (an immutable named tuple)."""

    node: int
    layer: int
    parent: Union[int, str]
    d_prev: int
    d_same: int  # 0 in the bipartite variants
    d_next: int


@dataclass(frozen=True)
class _Epoch:
    """Records of one connected component, in write order.

    Immutable: an epoch is shared by every parse that extends it, so
    the layer certificate (:attr:`complete_prefix`) is computed once per
    epoch value and cached.
    """

    records: tuple[BfsRecord, ...]

    def layer_nodes(self, k: int) -> list[BfsRecord]:
        return [r for r in self.records if r.layer == k]

    def max_layer(self) -> int:
        return max(r.layer for r in self.records)

    def layer_complete(self, k: int) -> bool:
        """The edge-counting certificate for layer ``k`` (trusted only
        when layers ``0..k-1`` are already known complete)."""
        if k == 0:
            return any(r.layer == 0 for r in self.records)
        prev = self.layer_nodes(k - 1)
        here = self.layer_nodes(k)
        expected = sum(r.d_next for r in prev) - 2 * sum(r.d_same for r in prev)
        return bool(prev) and sum(r.d_prev for r in here) == expected

    @cached_property
    def complete_prefix(self) -> int:
        """Largest ``c`` such that layers ``0..c-1`` are all complete
        (``0`` if even the root is missing)."""
        c = 0
        while self.layer_complete(c):
            c += 1
            if c > self.max_layer() + 1:
                break
        return c

    def exhausted(self) -> bool:
        """All layers complete and the last layer emits no further edges."""
        top = self.max_layer()
        if self.complete_prefix < top + 1:
            return False
        last = self.layer_nodes(top)
        return sum(r.d_next for r in last) - 2 * sum(r.d_same for r in last) == 0


@dataclass(frozen=True)
class BoardState:
    """Parsed view of a BFS whiteboard.

    Immutable (``epochs`` a tuple, ``written`` a frozenset): one state
    is the :meth:`~repro.core.whiteboard.BoardView.fold` accumulator of
    its board, shared by every protocol call on that board and extended
    by every board written on top of it.
    """

    epochs: tuple[_Epoch, ...]
    written: frozenset[int]  # every author seen, including INV/ABT writers
    invalid_seen: bool

    @property
    def current(self) -> Optional[_Epoch]:
        return self.epochs[-1] if self.epochs else None


#: The parse of the empty board.
EMPTY = BoardState((), frozenset(), False)


def _parse_step(state: BoardState, payload: Payload) -> BoardState:
    """``state`` extended by one whiteboard payload: ``ROOT`` records
    open a new epoch, INV/ABT messages only add their authors."""
    tag = payload[0]
    if tag == _TAG_INVALID:
        return BoardState(state.epochs, state.written | {payload[1]}, True)
    if tag == _TAG_ABORT:
        return BoardState(state.epochs, state.written | {payload[1]},
                          state.invalid_seen)
    if tag != _TAG_BFS:
        raise ValueError(f"unrecognised whiteboard payload {payload!r}")
    if len(payload) == 6:
        _, node, layer, parent, d_prev, d_next = payload
        d_same = 0
    else:
        _, node, layer, parent, d_prev, d_same, d_next = payload
    rec = BfsRecord(node, layer, parent, d_prev, d_same, d_next)
    epochs = state.epochs
    if parent == ROOT:
        epochs = epochs + (_Epoch((rec,)),)
    elif not epochs:
        raise ValueError("BFS record before any root")
    else:
        epochs = epochs[:-1] + (_Epoch(epochs[-1].records + (rec,)),)
    return BoardState(epochs, state.written | {node}, state.invalid_seen)


def parse_board(board: BoardView) -> BoardState:
    """Split the whiteboard into epochs (``ROOT`` records open a new one),
    skipping INV/ABT messages but tracking their authors.

    A memoized fold (:meth:`~repro.core.whiteboard.BoardView.fold`): on
    the engine's views, which extend one another write by write, each
    board state is parsed once and each write adds one record.  The
    returned state is shared, which its immutability makes safe.
    """
    return board.fold(_parse_step, EMPTY)


def _forest_from_state(state: BoardState) -> BfsForest:
    parent: dict[int, Union[int, str]] = {}
    layer: dict[int, int] = {}
    roots: list[int] = []
    for epoch in state.epochs:
        for r in epoch.records:
            parent[r.node] = r.parent
            layer[r.node] = r.layer
            if r.parent == ROOT:
                roots.append(r.node)
    return BfsForest(parent, layer, tuple(roots))


class _LayeredBfsBase(Protocol):
    """Shared activation/record logic for the three variants."""

    #: Whether records carry the ``d0`` field (general-graph variant).
    track_same_layer = False

    # -- helpers ------------------------------------------------------
    def _written_neighbor_records(
        self, view: NodeView, state: BoardState
    ) -> list[BfsRecord]:
        epoch = state.current
        if epoch is None:
            return []
        return [r for r in epoch.records if r.node in view.neighbors]

    def _may_root(self, view: NodeView, state: BoardState) -> bool:
        """Condition (c): previous component exhausted (or empty board),
        smallest unwritten identifier, no written neighbour."""
        if any(w in state.written for w in view.neighbors):
            return False
        unwritten_min = min(
            v for v in range(1, view.n + 1) if v not in state.written
        )
        if view.node != unwritten_min:
            return False
        return state.current is None or state.current.exhausted()

    def _may_join_layer(self, view: NodeView, state: BoardState) -> bool:
        """Conditions (a)+(b): some neighbour written and the minimal
        such layer certified complete."""
        neigh = self._written_neighbor_records(view, state)
        if not neigh:
            return False
        epoch = state.current
        assert epoch is not None
        lam = min(r.layer for r in neigh)
        return epoch.complete_prefix >= lam + 1

    def _bfs_payload(self, view: NodeView, state: BoardState) -> Payload:
        """The node's record, from one pass over the current epoch.

        Among the written neighbours, ``lam`` is the minimal layer,
        ``parent`` the smallest identifier on it, ``d_prev`` their count
        and ``d_same`` the count on layer ``lam + 1`` (the writer's own
        layer).  When a smaller layer turns up, the records counted on
        the old minimum are exactly those one layer above the new one.
        """
        epoch = state.current
        neighbors = view.neighbors
        lam = parent = None
        d_prev = d_same = 0
        for r in epoch.records if epoch is not None else ():
            node = r.node
            if node not in neighbors:
                continue
            layer = r.layer
            if lam is None or layer < lam:
                d_same = d_prev if lam is not None and layer + 1 == lam else 0
                lam, parent, d_prev = layer, node, 1
            elif layer == lam:
                d_prev += 1
                if node < parent:
                    parent = node
            elif layer == lam + 1:
                d_same += 1
        if lam is None:
            # Root record: layer 0, full degree pointing outward.
            if self.track_same_layer:
                return (_TAG_BFS, view.node, 0, ROOT, 0, 0, view.degree)
            return (_TAG_BFS, view.node, 0, ROOT, 0, view.degree)
        if self.track_same_layer:
            return (_TAG_BFS, view.node, lam + 1, parent, d_prev, d_same,
                    view.degree - d_prev)
        return (_TAG_BFS, view.node, lam + 1, parent, d_prev,
                view.degree - d_prev)

    # -- protocol interface -------------------------------------------
    def wants_to_activate(self, view: NodeView) -> bool:
        state = parse_board(view.board)
        return self._may_root(view, state) or self._may_join_layer(view, state)

    def message(self, view: NodeView) -> Payload:
        return self._bfs_payload(view, parse_board(view.board))

    def output(self, board: BoardView, n: int) -> Any:
        return _forest_from_state(parse_board(board))


class BipartiteBfsAsyncProtocol(_LayeredBfsBase):
    """Corollary 4: BFS forest of any *bipartite* graph in ``ASYNC[log n]``.

    No parity guard, no ``d0``: on bipartite inputs the layer
    certificates are exact; on odd-cycle inputs the protocol deadlocks
    (corrupted configuration) — the paper's noted behaviour.
    """

    name = "bfs-bipartite-async"
    designed_for = "ASYNC"
    track_same_layer = False


class EobBfsProtocol(_LayeredBfsBase):
    """Theorem 7: EOB-BFS in ``ASYNC[log n]``.

    Output on even-odd-bipartite inputs is the canonical BFS forest;
    otherwise the negative answer :data:`NOT_EOB` (the invalid/abort
    mechanism guarantees termination on every input, see module doc).
    """

    name = "eob-bfs-async"
    designed_for = "ASYNC"
    track_same_layer = False

    @staticmethod
    def _parity_violation(view: NodeView) -> bool:
        return any((w - view.node) % 2 == 0 for w in view.neighbors)

    def wants_to_activate(self, view: NodeView) -> bool:
        if self._parity_violation(view):
            return True
        state = parse_board(view.board)
        if state.invalid_seen:
            return True
        return self._may_root(view, state) or self._may_join_layer(view, state)

    def message(self, view: NodeView) -> Payload:
        if self._parity_violation(view):
            return (_TAG_INVALID, view.node)
        state = parse_board(view.board)
        if state.invalid_seen:
            return (_TAG_ABORT, view.node)
        return self._bfs_payload(view, state)

    def output(self, board: BoardView, n: int) -> Any:
        state = parse_board(board)
        if state.invalid_seen:
            return NOT_EOB
        return _forest_from_state(state)


class SyncBfsProtocol(_LayeredBfsBase):
    """Theorem 10: BFS on arbitrary graphs in ``SYNC[log n]``.

    The ``d0`` field counts same-layer records present *at write time*;
    summed over a completed layer it equals the number of intra-layer
    edges (each counted once, by its later-written endpoint), which is
    exactly the correction term the general-graph certificate needs.
    """

    name = "bfs-sync"
    designed_for = "SYNC"
    track_same_layer = True
