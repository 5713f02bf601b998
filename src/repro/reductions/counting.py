"""Lemma 3 — the whiteboard counting bound, made executable.

    If BUILD restricted to a class ``G`` with ``g(n)`` members is
    solvable in any of the four models with ``f(n)``-bit messages, then
    ``log g(n) = O(n · f(n))``.

The final whiteboard carries at most ``n · f(n)`` bits, and a
deterministic output function must map boards to graphs injectively over
the class, so the class cannot out-count the boards.  This module
provides:

* exact/closed-form ``log2`` counts for the graph classes the paper's
  reductions use (all graphs, fixed-part bipartite, even-odd-bipartite,
  labeled trees, a k-degenerate lower bound);
* the capacity comparison itself (:func:`build_feasible`,
  :func:`min_message_bits_for_build`);
* the sharper *SIMASYNC multiset* bound: simultaneous messages depend
  only on local views, the adversary controls the order, so the board is
  determined by the message **multiset** — of which there are only
  ``C(M + n - 1, n)`` for ``M`` distinct messages;
* :func:`find_simasync_collision` — a concrete pigeonhole witness
  generator: two different graphs in a class on which a given SIMASYNC
  protocol produces identical message multisets, certifying that this
  protocol cannot solve BUILD (and hence any problem separating the two
  graphs) on that class.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Optional

from ..encoding.bits import payload_bits
from ..graphs.labeled_graph import LabeledGraph
from ..core.protocol import NodeView, Protocol
from ..core.whiteboard import BoardView

__all__ = [
    "whiteboard_capacity",
    "log2_all_graphs",
    "log2_bipartite_fixed_parts",
    "log2_even_odd_bipartite",
    "log2_labeled_trees",
    "log2_k_degenerate_lower",
    "build_feasible",
    "min_message_bits_for_build",
    "distinct_messages_upto",
    "simasync_multiset_capacity",
    "simasync_messages",
    "find_simasync_collision",
    "CollisionWitness",
    "subgraph_lower_bound_bits",
]


def whiteboard_capacity(n: int, f_bits: int) -> int:
    """Total bits on a final whiteboard: ``n`` messages of ``f_bits``."""
    return n * f_bits


def log2_all_graphs(n: int) -> float:
    """``log2`` of the number of labeled graphs on ``n`` nodes."""
    return n * (n - 1) / 2


def log2_bipartite_fixed_parts(n: int) -> float:
    """``log2`` count of bipartite graphs with parts ``{1..n/2}`` and
    ``{n/2+1..n}`` — the class in Theorem 3's reduction
    (``Ω(2^{(n/2)^2})`` in the paper)."""
    a = n // 2
    return float(a * (n - a))


def log2_even_odd_bipartite(n: int) -> float:
    """``log2`` count of even-odd-bipartite graphs on ``n`` nodes — the
    class in Theorem 8's reduction (``2^{Ω(n^2)}`` in the paper)."""
    odd = (n + 1) // 2
    even = n // 2
    return float(odd * even)


def log2_labeled_trees(n: int) -> float:
    """Cayley: ``n^{n-2}`` labeled trees."""
    if n < 2:
        return 0.0
    return (n - 2) * math.log2(n)


def log2_k_degenerate_lower(n: int, k: int) -> float:
    """A constructive lower bound on the ``log2`` count of
    degeneracy-≤k graphs: insert nodes one by one, each choosing exactly
    ``k`` back-neighbours freely once ``k`` predecessors exist.  Distinct
    choice sequences give distinct graphs."""
    total = 0.0
    for j in range(k, n):
        total += math.log2(math.comb(j, k))
    return total


def build_feasible(log2_count: float, n: int, f_bits: int) -> bool:
    """Lemma 3's necessary condition: the class fits in the whiteboard."""
    return log2_count <= whiteboard_capacity(n, f_bits)


def min_message_bits_for_build(log2_count: float, n: int) -> float:
    """Smallest per-node message size (bits) Lemma 3 permits for BUILD
    on a class of ``2^log2_count`` graphs."""
    return log2_count / n


def subgraph_lower_bound_bits(n: int, f: int) -> float:
    """Theorem 9's counting step: graphs on ``n`` nodes whose edges live
    inside ``{1..f}`` number ``2^{C(f,2)}``, so any model needs
    ``>= C(f,2)/n`` bits per message to solve ``SUBGRAPH_f`` — which is
    ``ω(g(n))`` whenever ``g = o(f)`` and ``f = ω(sqrt(n log n))``...
    the exact threshold the benchmark tabulates."""
    return (f * (f - 1) / 2) / n


# ----------------------------------------------------------------------
# SIMASYNC-specific multiset bound and concrete collision witnesses
# ----------------------------------------------------------------------

def distinct_messages_upto(bits: int) -> int:
    """Number of distinct binary messages of length ``1..bits`` plus the
    empty message: ``2^{bits+1} - 1``."""
    if bits < 0:
        raise ValueError("bits must be >= 0")
    return (1 << (bits + 1)) - 1


def simasync_multiset_capacity(n: int, bits: int) -> int:
    """Max number of graphs distinguishable by *any* SIMASYNC protocol
    with ``<= bits``-bit messages: the number of size-``n`` multisets
    over the message space.

    In SIMASYNC every message is a function of the writer's local view
    only and the adversary picks the order, so two inputs yielding equal
    multisets admit executions with identical whiteboards."""
    m = distinct_messages_upto(bits)
    return math.comb(m + n - 1, n)


def simasync_messages(protocol: Protocol, graph: LabeledGraph) -> tuple:
    """The (local-view-only) messages a SIMASYNC protocol produces on a
    graph, as a tuple indexed by node."""
    empty = BoardView(())
    return tuple(
        protocol.message(NodeView(v, graph.neighbors(v), graph.n, empty))
        for v in graph.nodes()
    )


@dataclass(frozen=True)
class CollisionWitness:
    """Two different graphs with identical SIMASYNC message multisets."""

    first: LabeledGraph
    second: LabeledGraph
    multiset: tuple

    @property
    def max_bits(self) -> int:
        return max(payload_bits(p) for p in self.multiset) if self.multiset else 0


def find_simasync_collision(
    protocol: Protocol,
    graphs: Iterable[LabeledGraph],
) -> Optional[CollisionWitness]:
    """Search a graph family for a pigeonhole collision under
    ``protocol``'s SIMASYNC messages.

    Returns the first pair of distinct graphs whose message multisets
    coincide — a machine-checkable certificate that the protocol cannot
    solve BUILD (or distinguish the two graphs at all) on this family.
    ``None`` means the protocol separates every pair in the family.
    """
    seen: dict[tuple, LabeledGraph] = {}
    for g in graphs:
        key = tuple(sorted(Counter(simasync_messages(protocol, g)).items(),
                           key=repr))
        if key in seen and seen[key] != g:
            multiset = tuple(m for m, c in key for _ in range(c))
            return CollisionWitness(seen[key], g, multiset)
        seen.setdefault(key, g)
    return None
