"""Executable reductions for Theorems 3, 6 and 8.

Each lower bound in the paper has the same shape: *if* problem P were
solvable with small messages, *then* BUILD would be solvable on a class
too large for the whiteboard (Lemma 3).  This module implements the
"then" parts as code that mechanically compiles a claimed protocol for P
into a BUILD solver, with exact bit bookkeeping:

* :class:`TriangleToBuildProtocol` — Theorem 3.  Any SIMASYNC TRIANGLE
  protocol ``A`` becomes a SIMASYNC BUILD protocol for bipartite graphs:
  node ``i`` writes ``(i, m'_i, m''_i)`` — its ``A``-messages without and
  with the Figure 1 apex — and the output function replays ``A``'s
  decision on every ``G'_{s,t}``.  Message size: ``2 f(n+1) + O(log n)``.
* :class:`MisToBuildProtocol` — Theorem 6.  Any SIMASYNC rooted-MIS
  protocol becomes a SIMASYNC BUILD protocol for *arbitrary* graphs via
  the ``G^(x)_{i,j}`` gadgets.
* :class:`EobBfsToBuildScheme` — Theorem 8.  A SIMSYNC protocol's
  messages may depend on the board, so the compiled object is not a
  protocol but a *communication scheme*: a sequential encoder producing
  the fixed-order transcript (which Lemma 3's pigeonhole applies to
  verbatim) and a decoder that replays the claimed protocol on every
  Figure 2 gadget ``G_i``.

Instantiating the transformers with the naive ``O(n)``-bit protocols
(:mod:`repro.protocols.naive`) validates the constructions end to end;
instantiating them with a hypothetical ``o(n)``-bit protocol would
contradict :mod:`repro.reductions.counting` — which is precisely the
paper's argument.
"""

from __future__ import annotations

from collections.abc import Callable

from ..encoding.bits import Payload, payload_bits
from ..graphs.labeled_graph import Edge, LabeledGraph
from ..graphs.properties import BfsForest, ROOT
from ..core.protocol import NodeView, Protocol
from ..core.whiteboard import BoardView

__all__ = [
    "TriangleToBuildProtocol",
    "MisToBuildProtocol",
    "EobBfsToBuildScheme",
]

_EMPTY = BoardView(())


class TriangleToBuildProtocol(Protocol):
    """Theorem 3's ``A -> A'`` compiler.

    Parameters
    ----------
    triangle_factory:
        ``n -> Protocol``; must return a *SIMASYNC* TRIANGLE protocol for
        ``n``-node graphs (its ``message`` may only read the local view —
        the compiler always hands it an empty board, so a board-dependent
        protocol would silently degrade, not cheat).
        Output contract: ``1`` iff the input graph has a triangle.

    The compiled protocol solves BUILD on triangle-free (in the paper:
    bipartite) graphs.
    """

    designed_for = "SIMASYNC"

    def __init__(self, triangle_factory: Callable[[int], Protocol]) -> None:
        self.factory = triangle_factory
        self.name = "reduction-triangle->build"

    def message(self, view: NodeView) -> Payload:
        inner = self.factory(view.n + 1)
        apex = view.n + 1
        without = inner.message(
            NodeView(view.node, view.neighbors, view.n + 1, _EMPTY)
        )
        with_apex = inner.message(
            NodeView(view.node, view.neighbors | {apex}, view.n + 1, _EMPTY)
        )
        return (view.node, without, with_apex)

    def output(self, board: BoardView, n: int) -> LabeledGraph:
        inner = self.factory(n + 1)
        apex = n + 1
        pairs: dict[int, tuple[Payload, Payload]] = {}
        for node, without, with_apex in board:
            pairs[node] = (without, with_apex)
        if set(pairs) != set(range(1, n + 1)):
            raise ValueError("incomplete reduction board")
        edges: list[Edge] = []
        for s in range(1, n + 1):
            for t in range(s + 1, n + 1):
                simulated = [
                    pairs[i][1] if i in (s, t) else pairs[i][0]
                    for i in range(1, n + 1)
                ]
                # The output function itself computes the apex's message:
                # the apex's local view in G'_{s,t} is fully known.
                simulated.append(
                    inner.message(
                        NodeView(apex, frozenset((s, t)), n + 1, _EMPTY)
                    )
                )
                if inner.output(BoardView(tuple(simulated)), n + 1) == 1:
                    edges.append((s, t))
        return LabeledGraph(n, edges)


class MisToBuildProtocol(Protocol):
    """Theorem 6's compiler: SIMASYNC rooted-MIS => SIMASYNC BUILD.

    Parameters
    ----------
    mis_factory:
        ``(n, root) -> Protocol``; a SIMASYNC protocol whose output is a
        maximal independent set (a set of identifiers) containing
        ``root``.
    """

    designed_for = "SIMASYNC"

    def __init__(self, mis_factory: Callable[[int, int], Protocol]) -> None:
        self.factory = mis_factory
        self.name = "reduction-mis->build"

    def message(self, view: NodeView) -> Payload:
        x = view.n + 1
        inner = self.factory(view.n + 1, x)
        # m_k: x is NOT adjacent to me (I am one of {v_i, v_j}).
        non_adjacent = inner.message(
            NodeView(view.node, view.neighbors, view.n + 1, _EMPTY)
        )
        # m'_k: x IS adjacent to me.
        adjacent = inner.message(
            NodeView(view.node, view.neighbors | {x}, view.n + 1, _EMPTY)
        )
        return (view.node, non_adjacent, adjacent)

    def output(self, board: BoardView, n: int) -> LabeledGraph:
        x = n + 1
        inner = self.factory(n + 1, x)
        pairs: dict[int, tuple[Payload, Payload]] = {}
        for node, non_adjacent, adjacent in board:
            pairs[node] = (non_adjacent, adjacent)
        if set(pairs) != set(range(1, n + 1)):
            raise ValueError("incomplete reduction board")
        edges: list[Edge] = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                simulated = [
                    pairs[k][0] if k in (i, j) else pairs[k][1]
                    for k in range(1, n + 1)
                ]
                x_neighbors = frozenset(
                    v for v in range(1, n + 1) if v not in (i, j)
                )
                simulated.append(
                    inner.message(NodeView(x, x_neighbors, n + 1, _EMPTY))
                )
                mis = inner.output(BoardView(tuple(simulated)), n + 1)
                # {x, v_i, v_j} is the unique rooted MIS iff {v_i,v_j} ∉ E.
                if set(mis) != {x, i, j}:
                    edges.append((i, j))
        return LabeledGraph(n, edges)


class EobBfsToBuildScheme:
    """Theorem 8's compiler, as a fixed-order communication scheme.

    The claimed protocol ``A`` is SIMSYNC for EOB-BFS on ``(2n-1)``-node
    graphs.  Running ``A`` on every Figure 2 gadget ``G_i`` under the
    activation order ``(v_2, ..., v_{2n-1}, v_1)`` makes the messages of
    the base nodes ``v_2..v_n`` *independent of i* — their neighbourhoods
    and everything written before them coincide across all ``G_i``.
    Those ``n-1`` messages are therefore a code for the base graph:

    * :meth:`encode` — compute them by sequential simulation
      (``O(f(2n-1))`` bits per node: Lemma 3 then bounds the class);
    * :meth:`decode` — for each odd ``i``, extend the transcript with the
      auxiliary and root messages (computable without knowing the base
      graph), feed ``A``'s output function, and read ``N(v_i)`` off the
      third BFS layer.

    Parameters
    ----------
    protocol_factory:
        ``() -> Protocol``; the claimed SIMSYNC EOB-BFS protocol.  Its
        output must be a :class:`~repro.graphs.properties.BfsForest` on
        even-odd-bipartite inputs.
    """

    def __init__(self, protocol_factory: Callable[[], Protocol]) -> None:
        self.factory = protocol_factory

    # -- gadget structure helpers --------------------------------------
    @staticmethod
    def _aux_of(j: int, n: int) -> int:
        """The unique auxiliary neighbour of base node ``j`` in every
        ``G_i`` (independent of ``i``)."""
        return j + n - 2 if j % 2 == 1 else j + n

    @staticmethod
    def _aux_neighbors(a: int, n: int, i: int) -> frozenset[int]:
        """Neighbourhood of auxiliary node ``a`` in ``G_i`` given the
        base-independent wiring plus the ``v_1 ~ v_{i+n-2}`` edge."""
        neigh = set()
        j_odd = a - (n - 2)
        if 3 <= j_odd <= n and j_odd % 2 == 1:
            neigh.add(j_odd)
        j_even = a - n
        if 2 <= j_even <= n - 1 and j_even % 2 == 0:
            neigh.add(j_even)
        if a == i + n - 2:
            neigh.add(1)
        return frozenset(neigh)

    # -- scheme ---------------------------------------------------------
    def encode(self, base: LabeledGraph) -> tuple[Payload, ...]:
        """Messages of ``v_2..v_n`` under the fixed order (the code word).

        ``base`` must satisfy the Theorem 8 preconditions (labels
        ``2..n`` inside an odd-``n`` graph, even-odd-bipartite).
        """
        from .gadgets import eob_gadget_base_ok

        n = base.n
        if not eob_gadget_base_ok(base, n):
            raise ValueError("base violates the Theorem 8 preconditions")
        proto = self.factory()
        big_n = 2 * n - 1
        transcript: list[Payload] = []
        for j in range(2, n + 1):
            neighbors = frozenset(base.neighbors(j)) | {self._aux_of(j, n)}
            view = NodeView(j, neighbors, big_n, BoardView(tuple(transcript)))
            transcript.append(proto.message(view))
        return tuple(transcript)

    def _full_board(self, code: tuple[Payload, ...], n: int, i: int) -> BoardView:
        """Extend the code word to the complete fixed-order transcript of
        ``A`` on ``G_i`` (auxiliaries ``v_{n+1}..v_{2n-1}``, then ``v_1``)."""
        proto = self.factory()
        big_n = 2 * n - 1
        transcript = list(code)
        for a in range(n + 1, 2 * n):
            view = NodeView(
                a, self._aux_neighbors(a, n, i), big_n, BoardView(tuple(transcript))
            )
            transcript.append(proto.message(view))
        root_view = NodeView(
            1, frozenset({i + n - 2}), big_n, BoardView(tuple(transcript))
        )
        transcript.append(proto.message(root_view))
        return BoardView(tuple(transcript))

    def decode(self, code: tuple[Payload, ...], n: int) -> LabeledGraph:
        """Reconstruct the base graph from the code word."""
        proto = self.factory()
        big_n = 2 * n - 1
        edges: list[Edge] = []
        for i in range(3, n + 1, 2):
            forest = proto.output(self._full_board(code, n, i), big_n)
            if not isinstance(forest, BfsForest):
                raise ValueError(
                    f"claimed protocol returned {forest!r}, not a BFS forest"
                )
            for j in self._layer3_of_root1(forest):
                edges.append((min(i, j), max(i, j)))
        return LabeledGraph(n, sorted(set(edges)))

    @staticmethod
    def _layer3_of_root1(forest: BfsForest) -> list[int]:
        """Nodes at layer 3 of the tree rooted at ``v_1``."""
        out = []
        for v, l in forest.layer.items():
            if l != 3:
                continue
            # Walk to the root of v's tree.
            cur = v
            while forest.parent[cur] != ROOT:
                cur = forest.parent[cur]  # type: ignore[assignment]
            if cur == 1:
                out.append(v)
        return out

    def bits_per_node(self, base: LabeledGraph) -> int:
        """Largest encoded message in the code word — the quantity that
        Lemma 3 compares against ``log2`` of the class size."""
        return max(payload_bits(p) for p in self.encode(base))
