"""Named graph classes: membership, sampling and counting in one place.

The paper's statements quantify over graph *classes* (forests,
degeneracy-≤k, even-odd-bipartite, the 2-CLIQUES promise class, ...).
Scattering their membership predicates, samplers and Lemma 3 counts
across modules invites drift, so :class:`GraphClass` bundles the three
views and :data:`FAMILIES` registers every class the experiments use.

Used by the CLI (``demo``, ``sweep``, ``stress`` and ``campaign`` all
name their instances here), campaigns, the counting benchmarks, and the
property tests that check the sampler really stays inside its class.
:data:`FAMILY_ALIASES` keeps the CLI's older short names resolving to
the same classes.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Optional

from . import generators as gen
from .degeneracy import is_k_degenerate
from .labeled_graph import LabeledGraph
from .properties import (
    is_bipartite,
    is_connected,
    is_even_odd_bipartite,
    is_two_cliques,
)

__all__ = ["GraphClass", "FAMILIES", "FAMILY_ALIASES", "family",
           "k_degenerate_class"]


@dataclass(frozen=True)
class GraphClass:
    """One graph class with its three faces.

    Attributes
    ----------
    name:
        Registry key (e.g. ``"forests"``).
    description:
        Human-readable definition.
    contains:
        Membership predicate.
    sample:
        ``(n, seed) -> LabeledGraph`` drawing a member on ``n`` nodes.
    log2_count:
        Optional ``n -> log2 |class_n|`` (exact or documented bound) for
        Lemma 3 arithmetic.
    """

    name: str
    description: str
    contains: Callable[[LabeledGraph], bool]
    sample: Callable[[int, int], LabeledGraph]
    log2_count: Optional[Callable[[int], float]] = None

    def sample_in_class(self, n: int, seed: int) -> LabeledGraph:
        """Sample and assert size and membership (sampler bug-guard).

        A size the class cannot sample raises :class:`ValueError`.
        """
        g = self.sample(n, seed)
        if g.n != n or not self.contains(g):
            raise AssertionError(
                f"sampler for {self.name!r} left its class "
                f"(n={n}, seed={seed}, drew {g.n} nodes)"
            )
        return g


def k_degenerate_class(k: int) -> GraphClass:
    """The degeneracy-≤k class (Definition 1), for any ``k``."""
    return GraphClass(
        name=f"degeneracy<={k}",
        description=f"graphs admitting an elimination order with residual degree <= {k}",
        contains=lambda g, _k=k: is_k_degenerate(g, _k),
        sample=lambda n, seed, _k=k: gen.random_k_degenerate(n, _k, seed=seed),
        log2_count=None,
    )


def _forest_contains(g: LabeledGraph) -> bool:
    return is_k_degenerate(g, 1)


def _even_half(n: int) -> int:
    """``n // 2`` for the two-cliques classes, which need an even ``n >= 2``."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"the 2-CLIQUES classes need an even n >= 2, got {n}")
    return n // 2


def _two_cliques_sample(n: int, seed: int) -> LabeledGraph:
    half = _even_half(n)
    return gen.two_cliques(half) if seed % 2 == 0 else (
        gen.connected_two_cliques_like(half, seed=seed)
        if half % 2 == 0 else gen.two_cliques(half)
    )


FAMILIES: dict[str, GraphClass] = {
    "all": GraphClass(
        name="all",
        description="all labeled graphs",
        contains=lambda g: True,
        sample=lambda n, seed: gen.random_graph(n, 0.5, seed=seed),
        log2_count=lambda n: n * (n - 1) / 2,
    ),
    "random": GraphClass(
        name="random",
        description="all labeled graphs, drawn sparser: G(n, 0.3)",
        contains=lambda g: True,
        sample=lambda n, seed: gen.random_graph(n, 0.3, seed=seed),
    ),
    "connected": GraphClass(
        name="connected",
        description="connected graphs: G(n, 0.3) plus a random spanning tree",
        contains=is_connected,
        sample=lambda n, seed: gen.random_connected_graph(n, 0.3, seed=seed),
    ),
    "path": GraphClass(
        name="path",
        description="paths on n nodes, any labelling; samples 1-2-...-n",
        contains=lambda g: (
            g.m == max(0, g.n - 1) and is_connected(g)
            and all(g.degree(v) <= 2 for v in g.nodes())
        ),
        sample=lambda n, seed: gen.path_graph(n),
    ),
    "cycle": GraphClass(
        name="cycle",
        description="cycles on n >= 3 nodes, any labelling; samples 1-2-...-n-1",
        contains=lambda g: g.n >= 3 and g.is_regular(2) and is_connected(g),
        sample=lambda n, seed: gen.cycle_graph(n),
    ),
    "forests": GraphClass(
        name="forests",
        description="acyclic graphs (degeneracy <= 1)",
        contains=_forest_contains,
        sample=lambda n, seed: gen.random_forest(n, max(1, n // 5), seed=seed),
        log2_count=lambda n: (n - 2) * math.log2(n) if n >= 3 else 0.0,
        # (trees only — a valid lower bound for forests)
    ),
    "degenerate2": GraphClass(
        name="degenerate2",
        description="graphs of degeneracy at most 2",
        contains=lambda g: is_k_degenerate(g, 2),
        sample=lambda n, seed: gen.random_k_degenerate(n, 2, seed=seed),
    ),
    "degenerate3": GraphClass(
        name="degenerate3",
        description="graphs of degeneracy at most 3",
        contains=lambda g: is_k_degenerate(g, 3),
        sample=lambda n, seed: gen.random_k_degenerate(n, 3, seed=seed),
    ),
    "bipartite": GraphClass(
        name="bipartite",
        description="2-colourable graphs",
        contains=is_bipartite,
        sample=lambda n, seed: gen.random_bipartite(n // 2, n - n // 2, 0.4, seed=seed),
        log2_count=lambda n: float((n // 2) * (n - n // 2)),
        # (fixed-bipartition subclass — the Theorem 3 count)
    ),
    "even-odd-bipartite": GraphClass(
        name="even-odd-bipartite",
        description="no edge joins two identifiers of equal parity",
        contains=is_even_odd_bipartite,
        sample=lambda n, seed: gen.random_even_odd_bipartite(n, 0.4, seed=seed),
        log2_count=lambda n: float(((n + 1) // 2) * (n // 2)),
    ),
    "odd-cycles": GraphClass(
        name="odd-cycles",
        description="odd cycles C_n (non-bipartite; Corollary 4 open problem)",
        contains=lambda g: (
            g.n >= 3 and g.n % 2 == 1 and g.is_regular(2) and is_connected(g)
        ),
        # Strict like the two-cliques sampler: the class is empty at
        # even n, so asking for an even instance is a caller bug.  The
        # canonical 1-2-...-n-1 cycle is the deterministic pick.
        sample=lambda n, seed: gen.odd_cycle_graph(n),
        # (n-1)!/2 labeled cycles for odd n, zero for even n — too lumpy
        # for a useful log2_count.
        log2_count=None,
    ),
    "odd-cycle-probe": GraphClass(
        name="odd-cycle-probe",
        description=(
            "odd cycle on 1..n-2 plus a disjoint probe edge "
            "(Corollary 4 deadlock gadget)"
        ),
        contains=lambda g: (
            g.n >= 5 and g.n % 2 == 1
            and g.degree(g.n - 1) == 1 and g.degree(g.n) == 1
            and g.has_edge(g.n - 1, g.n)
            and all(g.degree(v) == 2 for v in range(1, g.n - 1))
            and is_connected(g.induced_subgraph(range(1, g.n - 1)))
        ),
        sample=lambda n, seed: gen.odd_cycle_with_probe(n),
        log2_count=None,
    ),
    "two-cliques-promise": GraphClass(
        name="two-cliques-promise",
        description="(n/2-1)-regular graphs on n nodes (YES = two cliques)",
        contains=lambda g: g.n % 2 == 0 and g.is_regular(g.n // 2 - 1),
        sample=_two_cliques_sample,
        log2_count=None,
    ),
    "two-cliques-yes": GraphClass(
        name="two-cliques-yes",
        description="disjoint unions of two equal cliques",
        contains=is_two_cliques,
        sample=lambda n, seed: gen.two_cliques(_even_half(n)),
        log2_count=lambda n: 0.0,  # one instance per (even) n
    ),
}


#: Older CLI names, each resolving to the registered class that samples
#: exactly the same graphs.
FAMILY_ALIASES: dict[str, str] = {
    "k-degenerate": "degenerate2",
    "eob": "even-odd-bipartite",
    "odd-cycle": "odd-cycles",
    "two-cliques": "two-cliques-yes",
}


def family(name: str) -> GraphClass:
    """Look up a registered class by its name or an alias."""
    name = FAMILY_ALIASES.get(name, name)
    if name not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise KeyError(f"unknown graph class {name!r}; known: {known}")
    return FAMILIES[name]
