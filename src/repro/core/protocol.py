"""Protocol interface.

A *protocol* (Section 2 of the paper) is, per node, a pair of functions:

* ``act`` — should an awake node raise its hand?  (Simultaneous models
  override this: everyone activates after the first round.)
* ``msg`` — the single message the node will write.  In synchronous
  models this is re-evaluated while the node waits (it may "change its
  mind"); in asynchronous models the simulator freezes the value
  computed at activation time.

plus one global ``out`` function evaluated on the final whiteboard.

Every function sees only the paper-legal inputs, bundled in a
:class:`NodeView`: the node's identifier, its neighbours' identifiers,
``n``, and the whiteboard payloads.  A protocol is a pure function of
that view: it carries no per-run mutable state, because one protocol
object serves every branch of a walk — the engine forks and rolls back
configurations, never protocols.

A protocol that derives its decisions from a parse of the whole board
can read it through :meth:`BoardView.fold
<repro.core.whiteboard.BoardView.fold>` instead of re-parsing it on
every call: the engine extends one view per write, so the fold pays one
step per payload and every call on the same board shares the result
(the layer-certified BFS protocols parse this way).  The contract: the
step function is pure, and the accumulator is immutable — one
accumulator object is shared by every view that extends it and every
caller that reads it.

The engine builds one :class:`NodeView` per activation check and per
message, so the view is a :class:`~typing.NamedTuple`: immutable and
built with one tuple allocation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, NamedTuple

from ..encoding.bits import Payload
from .whiteboard import BoardView

__all__ = ["NodeView", "Protocol"]


class NodeView(NamedTuple):
    """Everything a node is allowed to know when deciding/acting.

    An immutable named tuple of the four paper-legal inputs.

    Attributes
    ----------
    node:
        The node's own identifier ``ID(v)``.
    neighbors:
        The identifiers of its neighbours ``N(v)``.
    n:
        Total number of nodes (known to all nodes in the paper's model).
    board:
        Ordered whiteboard payloads visible so far.
    """

    node: int
    neighbors: frozenset[int]
    n: int
    board: BoardView

    @property
    def degree(self) -> int:
        return len(self.neighbors)


class Protocol(ABC):
    """Base class for whiteboard protocols.

    Subclasses implement :meth:`message` and :meth:`output`, and override
    :meth:`wants_to_activate` when designed for a free model
    (``ASYNC``/``SYNC``).  The default activation rule — activate
    immediately — is what simultaneous protocols need and is also a valid
    (if eager) free-model behaviour.

    A protocol whose ``output`` depends only on the *multiset* of board
    payloads — never on their order — may declare it by setting
    :attr:`output_order_invariant`; exhaustive runs then decode each
    distinct board multiset once per walk (per lot, when a cell is
    sharded) instead of once per schedule.  Under SIMASYNC the flag
    also licenses the quotient-DAG fold (:mod:`repro.runtime.quotient`):
    an exhaustive cell visits each configuration — written and crashed
    sets, budgets, board multiset — once instead of each schedule, and
    checks each terminal configuration once.  A seeded guard replays a
    few random schedules per fold and raises
    :class:`~repro.core.errors.ProtocolViolation` when one disagrees.
    The declaration is a contract with two parts:

    * ``output(board, n)`` (its value, or the exception it raises) is a
      function of ``n`` and the payload multiset alone, including on
      fault-perturbed boards with an entry missing or duplicated;
    * outputs are immutable, because one output object is shared by
      every run that produced the same multiset.
    """

    #: Human-readable protocol name used in reports.
    name: str = "protocol"

    #: The weakest model family the protocol is designed for; purely
    #: informational (simulations may run it under any stronger model).
    designed_for: str = "SIMASYNC"

    #: Whether ``output`` is a function of the board's payload multiset
    #: (see the class docstring for the full contract).  A protocol
    #: property like :attr:`designed_for`, set by the class, never by a
    #: caller.
    output_order_invariant: bool = False

    def wants_to_activate(self, view: NodeView) -> bool:
        """Free-model activation decision for an awake node.

        Called once per write event with the current board; returning
        ``True`` is irrevocable (the node raises its hand).  Ignored in
        simultaneous models, where every node activates after round 1.
        """
        return True

    @abstractmethod
    def message(self, view: NodeView) -> Payload:
        """The node's single whiteboard message.

        Asynchronous models call this exactly once, at activation;
        synchronous models call it when the adversary picks the node, so
        ``view.board`` reflects everything written before the write.
        """

    @abstractmethod
    def output(self, board: BoardView, n: int) -> Any:
        """The protocol output computed from the final whiteboard."""
