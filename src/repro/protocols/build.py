"""BUILD: whiteboard reconstruction of bounded-degeneracy graphs.

Section 3 of the paper.  Every node simultaneously (``SIMASYNC``) writes

``(ID(v), d_G(v), b_1, ..., b_k)``  with  ``b_p = Σ_{w ∈ N(v)} ID(w)^p``

— ``O(k^2 log n)`` bits (Lemma 1).  The output function (Algorithm 1)
repeatedly *prunes* a node of residual degree ≤ k: its current
neighbourhood is the unique set with those power sums (Wright's theorem),
and pruning subtracts its contribution from every neighbour's tuple.
For ``k = 1`` this is exactly the forest protocol of Section 3.1.

The protocol is *robust* (end of Section 3): on inputs outside the
degeneracy-≤k class the pruning gets stuck or a decode fails, and the
output is the sentinel :data:`NOT_IN_CLASS` instead of a wrong graph.
"""

from __future__ import annotations

from typing import Literal, Union

from ..encoding.bits import Payload
from ..encoding.power_sums import DecodeError, SubsetLookupTable, decode_power_sums, power_sums
from ..graphs.labeled_graph import Edge, LabeledGraph
from ..core.protocol import NodeView, Protocol
from ..core.whiteboard import BoardView

__all__ = [
    "NOT_IN_CLASS",
    "BuildOutput",
    "DegenerateBuildProtocol",
    "ForestBuildProtocol",
    "decode_build_board",
]

#: Sentinel output when the input graph is not k-degenerate (the
#: recognition behaviour noted after Theorem 2).
NOT_IN_CLASS = "NOT_IN_CLASS"

BuildOutput = Union[LabeledGraph, Literal["NOT_IN_CLASS"]]


class DegenerateBuildProtocol(Protocol):
    """Theorem 2: ``BUILD`` for degeneracy-≤k graphs in ``SIMASYNC[log n]``.

    Parameters
    ----------
    k:
        Degeneracy bound; all nodes must agree on it (the paper assumes
        ``k`` is common knowledge).
    decoder:
        ``"newton"`` (exact algebraic inversion, default) or ``"lookup"``
        (the paper's Lemma 2 table — only viable for small ``n``/``k``).
    """

    designed_for = "SIMASYNC"
    #: Algorithm 1 parses the board into a per-identifier table (a
    #: repeated identifier or a missing one rejects the board), then
    #: prunes in identifier order, so the output never sees the
    #: write order.  Subclasses decode through the same function.
    output_order_invariant = True

    def __init__(self, k: int, decoder: str = "newton") -> None:
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if decoder not in ("newton", "lookup"):
            raise ValueError(f"unknown decoder {decoder!r}")
        self.k = k
        self.decoder = decoder
        self.name = f"build-degenerate(k={k})"
        self._lookup: SubsetLookupTable | None = None

    def message(self, view: NodeView) -> Payload:
        # The message ignores the whiteboard entirely: SIMASYNC-legal.
        return (view.node, view.degree) + power_sums(sorted(view.neighbors), self.k)

    def output(self, board: BoardView, n: int) -> BuildOutput:
        lookup = None
        if self.decoder == "lookup":
            if self._lookup is None or self._lookup.n != n:
                self._lookup = SubsetLookupTable(n, self.k)
            lookup = self._lookup
        return decode_build_board(board, n, self.k, lookup=lookup)


class ForestBuildProtocol(DegenerateBuildProtocol):
    """Section 3.1's special case ``k = 1``: forests.

    The message is the paper's triple ``(ID, d_T(v), Σ ID(w))``.
    """

    def __init__(self, decoder: str = "newton") -> None:
        super().__init__(k=1, decoder=decoder)
        self.name = "build-forest"


def decode_build_board(
    board: BoardView,
    n: int,
    k: int,
    lookup: SubsetLookupTable | None = None,
) -> BuildOutput:
    """Algorithm 1: reconstruct the graph from a complete BUILD board.

    Runs the pruning loop on mutable copies of the whiteboard tuples,
    ``O(n^2)`` arithmetic operations overall.  Returns
    :data:`NOT_IN_CLASS` when the board is not the trace of a
    degeneracy-≤k graph (stuck pruning, failed decode, or inconsistent
    bookkeeping).
    """
    # Parse and validate the board: one message per identifier.
    state: dict[int, tuple[int, list[int]]] = {}
    for payload in board:
        if not (
            isinstance(payload, tuple)
            and len(payload) == k + 2
            and all(isinstance(x, int) for x in payload)
        ):
            return NOT_IN_CLASS
        node, deg = payload[0], payload[1]
        if not (1 <= node <= n) or node in state or deg < 0:
            return NOT_IN_CLASS
        state[node] = (deg, list(payload[2:]))
    if len(state) != n:
        return NOT_IN_CLASS

    remaining = set(state)
    edges: list[Edge] = []
    while remaining:
        # "take an element ... s.t. d_G(x) <= k"; smallest ID for
        # determinism.  No such node => graph not k-degenerate => reject.
        x = min((v for v in remaining if state[v][0] <= k), default=None)
        if x is None:
            return NOT_IN_CLASS
        deg_x, sums_x = state[x]
        try:
            if lookup is not None:
                neigh = lookup.decode(sums_x, deg_x)
            else:
                neigh = decode_power_sums(sums_x, deg_x, n)
        except DecodeError:
            return NOT_IN_CLASS
        remaining.discard(x)
        for w in neigh:
            # Neighbours must still be present: an already-pruned or
            # out-of-range neighbour certifies an inconsistent board.
            if w not in remaining:
                return NOT_IN_CLASS
            edges.append((min(x, w), max(x, w)))
            deg_w, sums_w = state[w]
            power = 1
            for p in range(len(sums_w)):
                power *= x
                sums_w[p] -= power
            state[w] = (deg_w - 1, sums_w)
    try:
        return LabeledGraph(n, edges)
    except ValueError:
        return NOT_IN_CLASS
