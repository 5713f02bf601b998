"""Labeled graphs with identifiers ``1..n``.

The whiteboard models of Becker et al. operate on simple, undirected,
labeled graphs whose nodes carry unique identifiers ``1..n`` (the paper's
``ID(v_i) = i`` convention, Section 2).  :class:`LabeledGraph` is the
substrate every protocol, gadget and reference algorithm in this package
is built on.

The class is *immutable by convention*: all mutating operations return a
new graph, which makes graphs safe to share between a simulator, an
adversary and reference checkers.  Construction goes through
:meth:`LabeledGraph.from_edges` or the generators in
:mod:`repro.graphs.generators`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # numpy is imported by the three array methods only
    import numpy as np

__all__ = ["LabeledGraph", "Edge", "normalize_edge"]

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical (sorted) form of the undirected edge ``{u, v}``.

    Raises
    ------
    ValueError
        If ``u == v`` (self-loops are not simple-graph edges).
    """
    if u == v:
        raise ValueError(f"self-loop ({u},{u}) is not allowed in a simple graph")
    return (u, v) if u < v else (v, u)


class LabeledGraph:
    """A simple undirected graph on nodes ``{1, ..., n}``.

    Parameters
    ----------
    n:
        Number of nodes.  Node identifiers are exactly ``1..n``.
    edges:
        Iterable of pairs ``(u, v)``.  Duplicates are ignored; self-loops
        and out-of-range endpoints raise :class:`ValueError`.

    Notes
    -----
    Adjacency is stored as a tuple of ``frozenset`` so instances are
    hashable and safe to share.  ``adj[0]`` is an unused sentinel: node
    identifiers are 1-based throughout, mirroring the paper.

    The hash and the graph6 string (:func:`~repro.graphs.codec.to_graph6`)
    are computed on first use and kept on the instance; equality, hash
    and ``repr`` read the adjacency only, never the cached string.
    """

    __slots__ = ("_n", "_adj", "_m", "_hash", "_graph6")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError(f"node count must be non-negative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n + 1)]
        m = 0
        for u, v in edges:
            u, v = normalize_edge(u, v)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                m += 1
        self._n = n
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        self._m = m
        self._hash: Optional[int] = None
        self._graph6: Optional[str] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "LabeledGraph":
        """Build a graph on ``1..n`` from an edge iterable."""
        return cls(n, edges)

    @classmethod
    def empty(cls, n: int) -> "LabeledGraph":
        """The edgeless graph on ``n`` nodes."""
        return cls(n, ())

    @classmethod
    def from_adjacency_matrix(cls, matrix: np.ndarray) -> "LabeledGraph":
        """Build a graph from a symmetric 0/1 adjacency matrix.

        Row/column ``i`` of the matrix corresponds to node ``i + 1``.
        """
        import numpy as np

        a = np.asarray(matrix)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {a.shape}")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency matrix must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency matrix must have a zero diagonal")
        n = a.shape[0]
        us, vs = np.nonzero(np.triu(a, k=1))
        return cls(n, zip((us + 1).tolist(), (vs + 1).tolist()))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def nodes(self) -> range:
        """All node identifiers, ``1..n``."""
        return range(1, self._n + 1)

    def neighbors(self, v: int) -> frozenset[int]:
        """The neighbourhood ``N(v)`` of node ``v``."""
        self._check_node(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        """The degree ``d_G(v)``."""
        self._check_node(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def edges(self) -> Iterator[Edge]:
        """Iterate edges in canonical ``(u, v), u < v`` lexicographic order."""
        for u in self.nodes():
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def edge_set(self) -> frozenset[Edge]:
        """All edges as a frozenset of canonical pairs."""
        return frozenset(self.edges())

    def max_degree(self) -> int:
        """The maximum degree, 0 for an empty graph."""
        if self._n == 0:
            return 0
        return max(len(s) for s in self._adj[1:])

    def min_degree(self) -> int:
        """The minimum degree, 0 for an empty graph."""
        if self._n == 0:
            return 0
        return min(len(s) for s in self._adj[1:])

    def is_regular(self, d: Optional[int] = None) -> bool:
        """Whether every node has the same degree (``d`` if given)."""
        if self._n == 0:
            return True
        degs = {len(s) for s in self._adj[1:]}
        if len(degs) != 1:
            return False
        return d is None or degs == {d}

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def with_edges(self, extra: Iterable[Edge]) -> "LabeledGraph":
        """A new graph with ``extra`` edges added (same node set)."""
        return LabeledGraph(self._n, list(self.edges()) + [normalize_edge(*e) for e in extra])

    def without_edges(self, removed: Iterable[Edge]) -> "LabeledGraph":
        """A new graph with the given edges removed (same node set)."""
        gone = {normalize_edge(*e) for e in removed}
        return LabeledGraph(self._n, (e for e in self.edges() if e not in gone))

    def add_node_with_edges(self, neighbors: Iterable[int]) -> "LabeledGraph":
        """A new graph on ``n + 1`` nodes where node ``n + 1`` is adjacent to
        exactly ``neighbors``.

        This is the paper's standard gadget operation (e.g. the apex node
        of Figure 1 and the auxiliary nodes of Figure 2 are added this way).
        """
        new = self._n + 1
        edges = list(self.edges()) + [normalize_edge(new, w) for w in neighbors]
        return LabeledGraph(new, edges)

    def induced_subgraph(self, keep: Iterable[int]) -> "LabeledGraph":
        """The subgraph induced by ``keep``, *relabeled* to ``1..|keep|``
        preserving the relative ID order.

        Returns the relabeled graph; use :meth:`induced_edge_set` when the
        original labels must be preserved.
        """
        kept = sorted(set(keep))
        for v in kept:
            self._check_node(v)
        index = {v: i + 1 for i, v in enumerate(kept)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges()
            if u in index and v in index
        ]
        return LabeledGraph(len(kept), edges)

    def induced_edge_set(self, keep: Iterable[int]) -> frozenset[Edge]:
        """Edges of the subgraph induced by ``keep``, with original labels."""
        kept = set(keep)
        return frozenset(e for e in self.edges() if e[0] in kept and e[1] in kept)

    def complement(self) -> "LabeledGraph":
        """The complement graph on the same node set."""
        edges = [
            (u, v)
            for u in self.nodes()
            for v in range(u + 1, self._n + 1)
            if v not in self._adj[u]
        ]
        return LabeledGraph(self._n, edges)

    def relabel(self, mapping: dict[int, int]) -> "LabeledGraph":
        """Apply a node bijection ``old -> new`` (both sides ``1..n``)."""
        if sorted(mapping) != list(self.nodes()) or sorted(mapping.values()) != list(self.nodes()):
            raise ValueError("mapping must be a bijection on 1..n")
        return LabeledGraph(self._n, ((mapping[u], mapping[v]) for u, v in self.edges()))

    def disjoint_union(self, other: "LabeledGraph") -> "LabeledGraph":
        """Disjoint union; ``other``'s nodes are shifted by ``self.n``."""
        shift = self._n
        edges = list(self.edges()) + [(u + shift, v + shift) for u, v in other.edges()]
        return LabeledGraph(self._n + other._n, edges)

    def adjacency_matrix(self) -> np.ndarray:
        """The ``n x n`` 0/1 adjacency matrix (row ``i`` = node ``i + 1``)."""
        import numpy as np

        a = np.zeros((self._n, self._n), dtype=np.int8)
        for u, v in self.edges():
            a[u - 1, v - 1] = 1
            a[v - 1, u - 1] = 1
        return a

    def incidence_vector(self, v: int) -> np.ndarray:
        """The paper's incidence vector ``x`` of ``N(v)``: a length-``n``
        0/1 vector with 1 in coordinate ``i - 1`` iff ``v_i in N(v)``."""
        import numpy as np

        self._check_node(v)
        x = np.zeros(self._n, dtype=np.int64)
        for w in self._adj[v]:
            x[w - 1] = 1
        return x

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def _check_node(self, v: int) -> None:
        if not (1 <= v <= self._n):
            raise ValueError(f"node {v} out of range 1..{self._n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._n, self._adj))
        return self._hash

    def __contains__(self, v: int) -> bool:
        return 1 <= v <= self._n

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        shown = list(self.edges())
        if len(shown) > 12:
            tail = f", ... {len(shown) - 12} more"
            shown = shown[:12]
        else:
            tail = ""
        return f"LabeledGraph(n={self._n}, m={self._m}, edges={shown}{tail})"
