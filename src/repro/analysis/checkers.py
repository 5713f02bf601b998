"""Picklable output checkers.

The verification harness accepts any callable, but *parallel* sweeps
(``verify_protocol(..., backend=ProcessPoolBackend(...))``) ship work
to worker processes, and lambdas don't pickle.  These small callable classes cover every oracle
the experiments use; they are equally usable in serial sweeps, so test
code can share one vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs.labeled_graph import LabeledGraph
from ..graphs.properties import (
    canonical_bfs_forest,
    has_square,
    has_triangle,
    is_connected,
    is_even_odd_bipartite,
    is_rooted_mis,
    is_two_cliques,
)

__all__ = [
    "AcceptAny",
    "BuildEqualsInput",
    "MisValid",
    "BfsCanonical",
    "EobBfsCorrect",
    "TwoCliquesCorrect",
    "TriangleCorrect",
    "SquareCorrect",
    "ConnectivityCorrect",
    "SpanningForestCanonical",
    "default_checker",
]


@dataclass(frozen=True)
class AcceptAny:
    """Vacuous oracle: every successful execution counts as correct.

    Used by sweeps without a known output oracle (e.g. ``repro sweep``
    on a protocol with no registered checker), which then still measure
    deadlocks and exact message sizes across the adversary product.
    """

    def __call__(self, graph: LabeledGraph, output, result) -> bool:
        return True


@dataclass(frozen=True)
class BuildEqualsInput:
    """BUILD oracle: the output graph equals the input graph."""

    def __call__(self, graph: LabeledGraph, output, result) -> bool:
        return output == graph


@dataclass(frozen=True)
class MisValid:
    """Rooted-MIS oracle: output is a maximal independent set ∋ root."""

    root: int

    def __call__(self, graph, output, result) -> bool:
        return is_rooted_mis(graph, output, self.root)


@dataclass(frozen=True)
class BfsCanonical:
    """BFS oracle: output equals the canonical BFS forest."""

    def __call__(self, graph, output, result) -> bool:
        return output == canonical_bfs_forest(graph)


@dataclass(frozen=True)
class EobBfsCorrect:
    """EOB-BFS oracle: canonical forest on EOB inputs, NOT_EOB otherwise."""

    def __call__(self, graph, output, result) -> bool:
        if is_even_odd_bipartite(graph):
            return output == canonical_bfs_forest(graph)
        return output == "NOT_EOB"


@dataclass(frozen=True)
class TwoCliquesCorrect:
    """2-CLIQUES oracle under the promise."""

    def __call__(self, graph, output, result) -> bool:
        want = "TWO_CLIQUES" if is_two_cliques(graph) else "NOT_TWO_CLIQUES"
        return output == want


@dataclass(frozen=True)
class TriangleCorrect:
    """TRIANGLE oracle (1/0 output convention)."""

    def __call__(self, graph, output, result) -> bool:
        return output == (1 if has_triangle(graph) else 0)


@dataclass(frozen=True)
class SquareCorrect:
    """SQUARE (C4) oracle."""

    def __call__(self, graph, output, result) -> bool:
        return output == (1 if has_square(graph) else 0)


@dataclass(frozen=True)
class ConnectivityCorrect:
    """CONNECTIVITY oracle."""

    def __call__(self, graph, output, result) -> bool:
        return output == (1 if is_connected(graph) else 0)


@dataclass(frozen=True)
class SpanningForestCanonical:
    """Spanning-forest oracle: canonical BFS forest's edge set."""

    def __call__(self, graph, output, result) -> bool:
        return output == canonical_bfs_forest(graph).tree_edges()


def default_checker(census_key: str):
    """The registered output oracle for a census protocol.

    One table shared by the CLI sweeps and the campaign subsystem, so
    the two cannot drift apart.  Protocols without a known oracle get
    :class:`AcceptAny` — their sweeps still measure deadlocks and exact
    message sizes.  (``sketch-spanning-forest`` stays on ``AcceptAny``
    deliberately: its forest is valid but seed-dependent, never the
    canonical BFS forest; ``bfs-bipartite-async`` does too, because off
    the bipartite promise its deadlocks — not outputs — are the
    measurement, per Corollary 4.)
    """
    table = {
        "build-forest": BuildEqualsInput(),
        "build-degenerate": BuildEqualsInput(),
        "build-extended": BuildEqualsInput(),
        "naive-build": BuildEqualsInput(),
        "mis-greedy": MisValid(1),
        "naive-mis": MisValid(1),
        "two-cliques": TwoCliquesCorrect(),
        "eob-bfs": EobBfsCorrect(),
        "naive-eob-bfs": EobBfsCorrect(),
        "bfs-sync": BfsCanonical(),
        "connectivity-sync": ConnectivityCorrect(),
        "sketch-connectivity": ConnectivityCorrect(),
        "spanning-forest-sync": SpanningForestCanonical(),
        "triangle-degenerate": TriangleCorrect(),
        "naive-triangle": TriangleCorrect(),
        "square-degenerate": SquareCorrect(),
        "naive-square": SquareCorrect(),
    }
    return table.get(census_key, AcceptAny())
