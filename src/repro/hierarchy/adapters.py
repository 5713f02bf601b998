"""Lemma 4's inclusions as protocol adapters.

``P_SIMASYNC[f] ⊆ P_SIMSYNC[f] ⊆ P_ASYNC[f] ⊆ P_SYNC[f]`` is proven by
transforming protocols; this module is those transformations:

* SIMASYNC protocols run *unchanged* in every model: their messages
  ignore the whiteboard, so freezing vs recomputing is irrelevant, and
  eager activation is a legal free-model behaviour.
* SIMSYNC → ASYNC (:class:`SequentialLift`): fix the order
  ``v_1, ..., v_n`` — node ``i`` activates only once ``1..i-1`` have
  written, so its frozen message equals the SIMSYNC message under that
  particular adversary, and a correct SIMSYNC protocol is correct under
  *every* adversary, including this one.  Costs ``log n`` extra bits (an
  explicit sender tag).
* ASYNC → SYNC (:class:`FreezeAtActivation`): a synchronous node *may*
  recompute its message but is never obliged to; the adapter answers
  with the message of the board prefix the node activated on, making
  the asynchronous behaviour a special case of the synchronous one.

Both adapters are pure functions of the node's view, like every
protocol: the activation prefix is recomputed from the board, not
remembered.

:func:`lift` dispatches on the (designed-for, target) pair.
"""

from __future__ import annotations

from typing import Any

from ..encoding.bits import Payload
from ..core.models import ALL_MODELS, ModelSpec, MODELS_BY_NAME, at_most_as_strong
from ..core.protocol import NodeView, Protocol
from ..core.whiteboard import BoardView

__all__ = ["SequentialLift", "FreezeAtActivation", "lift"]

_SEQ = "SEQ"


class SequentialLift(Protocol):
    """Run a SIMSYNC protocol in a free model by imposing the identifier
    order (the Lemma 4 ``SIMSYNC ⊆ ASYNC`` construction).

    Messages are wrapped as ``("SEQ", id, inner_message)`` so that nodes
    can tell *who* has written purely from payloads, as the model
    requires.
    """

    def __init__(self, inner: Protocol) -> None:
        self.inner = inner
        self.name = f"seq-lift({inner.name})"
        self.designed_for = "ASYNC"

    @staticmethod
    def _writers(board: BoardView) -> set[int]:
        return {payload[1] for payload in board}

    @staticmethod
    def _inner_board(board: BoardView) -> BoardView:
        return BoardView(tuple(payload[2] for payload in board))

    def wants_to_activate(self, view: NodeView) -> bool:
        writers = self._writers(view.board)
        return all(j in writers for j in range(1, view.node))

    def message(self, view: NodeView) -> Payload:
        inner_view = NodeView(
            view.node, view.neighbors, view.n, self._inner_board(view.board)
        )
        return (_SEQ, view.node, self.inner.message(inner_view))

    def output(self, board: BoardView, n: int) -> Any:
        return self.inner.output(self._inner_board(board), n)


class FreezeAtActivation(Protocol):
    """Run an ASYNC-designed protocol under SYNC semantics by writing the
    message of the board the node activated on (Lemma 4's
    ``ASYNC ⊆ SYNC``: synchronous nodes simply decline to change their
    minds).

    The engine offers a waiting node every board the execution passes
    through, and the node activates on the first one its inner
    ``wants_to_activate`` accepts.  :meth:`message` finds that board
    again by scanning the prefixes of the current board, shortest
    first.  A duplicated write is the one exception: the engine never
    offers the prefix that holds only the first copy, and the scan
    does, so a protocol that activates on that prefix alone freezes
    one entry earlier than it would under ASYNC.  The BFS protocols
    decide alike on both boards.
    """

    def __init__(self, inner: Protocol) -> None:
        self.inner = inner
        self.name = f"freeze({inner.name})"
        self.designed_for = "SYNC"

    def wants_to_activate(self, view: NodeView) -> bool:
        return self.inner.wants_to_activate(view)

    def message(self, view: NodeView) -> Payload:
        # Prefixes are built with ``extended``, so a fold memoized on one
        # prefix carries over to the next.  With no proper prefix
        # accepted the node answers on the full board.
        inner = self.inner
        prefix = BoardView(())
        for payload in view.board:
            here = NodeView(view.node, view.neighbors, view.n, prefix)
            if inner.wants_to_activate(here):
                return inner.message(here)
            prefix = prefix.extended(payload)
        return inner.message(view)

    def output(self, board: BoardView, n: int) -> Any:
        return self.inner.output(board, n)


def lift(protocol: Protocol, target: ModelSpec | str) -> Protocol:
    """Adapt ``protocol`` (tagged with ``designed_for``) to run under
    ``target`` model semantics, following the Lemma 4 chain.

    Raises
    ------
    ValueError
        If the target model is *weaker* than the protocol's design model
        (Lemma 4 only goes upward; the paper's separations show the
        downward direction is impossible in general).
    """
    target_spec = MODELS_BY_NAME[target] if isinstance(target, str) else target
    source_spec = MODELS_BY_NAME[protocol.designed_for]
    if not at_most_as_strong(source_spec, target_spec):
        raise ValueError(
            f"cannot lift a {source_spec.name} protocol down to {target_spec.name}"
        )
    if source_spec.name == "SIMASYNC":
        return protocol  # runs unchanged everywhere
    if source_spec == target_spec:
        return protocol
    if source_spec.name == "SIMSYNC":
        # SIMSYNC -> SIMSYNC handled above; ASYNC and SYNC both get the
        # sequential lift (under SYNC its recomputed messages coincide
        # with the frozen ones because activation is single-file).
        return SequentialLift(protocol)
    if source_spec.name == "ASYNC":
        return FreezeAtActivation(protocol)
    raise AssertionError("unreachable")
