"""The shared whiteboard.

Two views exist on purpose:

* :class:`Whiteboard` — the simulator's bookkeeping: ordered entries with
  author identifiers, write rounds and exact bit sizes.  Adversaries and
  analysis code may use all of it.
* :class:`BoardView` — what a *protocol* may read: the ordered sequence
  of message payloads, nothing else.  In the paper nodes see only the
  whiteboard contents; messages self-identify (every protocol in the
  paper includes ``ID(v)`` in its message), so exposing author metadata
  to protocols would silently strengthen the model.  Keeping the views
  apart makes that mistake impossible to write.

The engine hands protocols one :class:`BoardView` per board state: each
write extends the previous view (:meth:`BoardView.extended`), and
:meth:`BoardView.fold` lets a protocol that parses the whole board do
so incrementally — every view that extends a parsed one pays one step
for its new payload instead of a re-parse.

Both records are built on every write event, so they are as cheap as
Python allows: an :class:`Entry` is a :class:`~typing.NamedTuple`
(immutable, positional, no per-field setter), and a :class:`BoardView`
is a ``__slots__`` class whose fold memo lives in a slot.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, TypeVar

from ..encoding.bits import Payload, payload_bits

A = TypeVar("A")

__all__ = ["Entry", "Whiteboard", "BoardView"]


class Entry(NamedTuple):
    """One written message with simulator metadata."""

    index: int
    author: int
    payload: Payload
    bits: int
    round_written: int


class BoardView:
    """Protocol-facing read-only view: ordered payloads only.

    Equality and hashing see ``payloads`` alone.  ``parent`` — the view
    of every payload but the last, when this view was built by
    :meth:`extended` — and the :meth:`fold` memo (the ``_folds`` slot)
    are bookkeeping that comparisons ignore.  The slots are assigned
    once, in ``__init__``; afterwards only the fold memo grows.
    """

    __slots__ = ("payloads", "parent", "_folds")

    def __init__(self, payloads: tuple[Payload, ...],
                 parent: Optional["BoardView"] = None) -> None:
        self.payloads = payloads
        self.parent = parent
        self._folds: dict = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoardView):
            return NotImplemented
        return self.payloads == other.payloads

    def __hash__(self) -> int:
        return hash(self.payloads)

    def __repr__(self) -> str:
        return f"BoardView(payloads={self.payloads!r})"

    def extended(self, payload: Payload) -> "BoardView":
        """The view of this board with ``payload`` written next."""
        return BoardView(self.payloads + (payload,), self)

    def fold(self, step: Callable[[A, Payload], A], initial: A) -> A:
        """Memoized left fold of ``step`` over the payloads from ``initial``.

        Equals ``functools.reduce(step, self.payloads, initial)``.  The
        result is memoized on this view per ``(step, initial)`` pair
        (``initial`` by identity), and a view built by :meth:`extended`
        folds by extending its parent's memoized accumulator with its
        last payload, so a board that grows one write at a time costs
        one ``step`` per write.  A view with no parent folds its whole
        payload tuple — the base case of the same recursion, walked
        iteratively so long boards cannot exhaust the stack.

        The contract: ``step`` is pure (its result depends only on its
        arguments, and it mutates neither), and accumulators are
        immutable, because one accumulator object is returned to every
        caller of this view and extended by every view built on it.
        """
        pending: list[BoardView] = []
        view: Optional[BoardView] = self
        acc = initial
        while view is not None:
            hit = view._folds.get(step)
            if hit is not None and hit[0] is initial:
                acc = hit[1]
                break
            pending.append(view)
            view = view.parent
        else:
            root = pending.pop()
            for payload in root.payloads:
                acc = step(acc, payload)
            root._folds[step] = (initial, acc)
        while pending:
            view = pending.pop()
            acc = step(acc, view.payloads[-1])
            view._folds[step] = (initial, acc)
        return acc

    def __len__(self) -> int:
        return len(self.payloads)

    def __iter__(self):
        return iter(self.payloads)

    def __getitem__(self, i: int) -> Payload:
        return self.payloads[i]

    @property
    def empty(self) -> bool:
        return not self.payloads

    @property
    def last(self) -> Payload:
        """The most recently written payload (the paper's 'last message')."""
        if not self.payloads:
            raise IndexError("whiteboard is empty")
        return self.payloads[-1]


@dataclass
class Whiteboard:
    """Simulator-side ordered whiteboard."""

    entries: list[Entry] = field(default_factory=list)

    def write(
        self,
        author: int,
        payload: Payload,
        round_written: int,
        bits: int | None = None,
    ) -> Entry:
        """Append a message; records its exact bit size.

        ``bits`` lets callers that already ran the accounting (the
        simulator charges the budget before writing) pass the size in
        instead of recomputing the canonical encoding length.
        """
        entry = Entry(len(self.entries), author, payload,
                      payload_bits(payload) if bits is None else bits,
                      round_written)
        self.entries.append(entry)
        return entry

    def view(self) -> BoardView:
        """Snapshot the protocol-facing view."""
        return BoardView(tuple(e.payload for e in self.entries))

    def authors(self) -> frozenset[int]:
        return frozenset(e.author for e in self.entries)

    def payload_of(self, author: int) -> Payload:
        for e in self.entries:
            if e.author == author:
                return e.payload
        raise KeyError(f"node {author} has not written")

    def total_bits(self) -> int:
        return sum(e.bits for e in self.entries)

    def max_bits(self) -> int:
        return max((e.bits for e in self.entries), default=0)

    def __len__(self) -> int:
        return len(self.entries)
