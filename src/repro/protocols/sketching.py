"""Randomized SIMASYNC connectivity via graph sketching (AGM).

The paper leaves connectivity-type problems in the weak models open
(Open Problems 1/2) and asks about randomized protocols (Open Problem
4).  With *public coins* — the same assumption as the randomized
2-CLIQUES protocol — the graph-sketching technique of Ahn, Guibas and
McGregor answers both in one stroke: every node simultaneously writes a
``polylog(n)``-bit **linear sketch** of its incidence vector, and the
output function runs Borůvka entirely on the whiteboard:

* edge ``{u, v}`` (``u < v``) gets a coordinate; node ``u`` counts it
  ``+1``, node ``v`` counts it ``-1``.  Summing the incidence vectors of
  a node set ``S`` cancels every edge inside ``S`` and leaves exactly
  the boundary ``∂S`` — and the sketches are linear, so the *sketch* of
  ``∂S`` is the sum of the members' sketches;
* each Borůvka round therefore samples one outgoing edge per component
  from the combined sketches (a fresh ℓ₀-sampler per round keeps the
  samples independent of earlier merges) and unions components;
* after ``≤ log2 n`` rounds the components are exactly the connected
  components, giving SPANNING-FOREST and CONNECTIVITY.

This is a *strict* extension of the paper (2012) by a contemporaneous
technique (AGM, SODA 2012); DESIGN.md lists it as the repro's
"future-work" implementation for Section 7.

Performance architecture.  All sketch randomness is public-coin, i.e. a
pure function of ``(n, shared_seed, rounds)``, so the expensive derived
tables are computed once and shared:

* :class:`SketchSpec` instances are interned per
  ``(n, shared_seed, rounds)`` (see :meth:`SketchSpec.cached`), so the
  protocol objects stop rebuilding specs on every ``message``/``output``
  call;
* :class:`SketchEngine` (one per spec, also interned) holds the
  per-round sampler seeds and feeds each node's incidence stream (one
  update per incident edge) through
  :meth:`~repro.encoding.l0_sampling.L0Sampler.batch_update`, whose one
  scalar loop reuses the cached level/fingerprint tables across all
  nodes, rounds, and repeated benchmark runs;
* :func:`slot_edge` inverts the edge↔slot bijection in closed form
  (``isqrt``) instead of an O(n) walk, and rejects out-of-range slots up
  front.

The sketches produced are bit-for-bit identical to the original
implementation; golden tests pin that invariant at ``n`` 8, 16 and 32
and on a 48-node instance whose nodes reach degree 46.  The sketch
protocols import no numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ..adversaries.scoring import ScoreHook
from ..encoding.bits import Payload
from ..encoding.l0_sampling import L0Sampler
from ..graphs.labeled_graph import Edge
from ..core.protocol import NodeView, Protocol
from ..core.whiteboard import BoardView

__all__ = [
    "SketchSpec",
    "SketchEngine",
    "SketchConnectivityProtocol",
    "SketchDecodeScore",
    "SketchSpanningForestProtocol",
    "edge_slot",
    "slot_edge",
]


def edge_slot(u: int, v: int, n: int) -> int:
    """Bijection from edges ``{u, v}`` (``u < v``) to slots ``1..C(n,2)``."""
    if not (1 <= u < v <= n):
        raise ValueError(f"need 1 <= u < v <= n, got ({u}, {v})")
    # slots are ordered lexicographically by (u, v)
    before_u = (u - 1) * (2 * n - u) // 2
    return before_u + (v - u)


def slot_edge(slot: int, n: int) -> Edge:
    """Inverse of :func:`edge_slot`, in closed form.

    Counting the ``t = C(n,2) - slot`` pairs lexicographically *after*
    the target edge ``(u, v)`` gives ``t = C(n-u, 2) + (n - v)``, so
    ``w = n - u`` is the unique integer with ``C(w,2) <= t < C(w+1,2)``
    — recoverable with one integer square root.
    """
    if slot < 1:
        raise ValueError(f"slots start at 1, got {slot}")
    if slot > n * (n - 1) // 2:
        raise ValueError(f"slot {slot} out of range for n={n}")
    t = n * (n - 1) // 2 - slot
    w = (1 + math.isqrt(1 + 8 * t)) // 2
    u = n - w
    v = n - (t - w * (w - 1) // 2)
    return (u, v)


class SketchSpec:
    """Shared sketch dimensions, derived from ``n`` and the public seed.

    ``rounds`` independent samplers (one per Borůvka round), each with
    ``levels = ceil(log2 C(n,2)) + 2`` subsampling levels.
    """

    def __init__(self, n: int, shared_seed: int, rounds: int | None = None) -> None:
        self.n = n
        self.shared_seed = shared_seed
        # Borůvka halves the component count per round, so ceil(log2 n)
        # rounds suffice when every sample lands; doubling that absorbs
        # per-round sampling failures (each round is independent).
        self.rounds = (
            rounds
            if rounds is not None
            else 2 * max(1, math.ceil(math.log2(max(2, n)))) + 1
        )
        slots = max(2, n * (n - 1) // 2)
        self.levels = math.ceil(math.log2(slots)) + 2

    @staticmethod
    @lru_cache(maxsize=1 << 12)
    def cached(n: int, shared_seed: int, rounds: int | None = None) -> "SketchSpec":
        """Interned spec per ``(n, shared_seed, rounds)``."""
        return SketchSpec(n, shared_seed, rounds)

    def engine(self) -> "SketchEngine":
        return SketchEngine.for_spec(self)

    def round_seed(self, round_index: int) -> int:
        """Public-coin seed of the Borůvka round's sampler."""
        return self.shared_seed * 1_000_003 + round_index

    def fresh_sampler(self, round_index: int) -> L0Sampler:
        return L0Sampler(seed=self.round_seed(round_index), levels=self.levels)

    def node_sketches(self, view: NodeView) -> list[L0Sampler]:
        """The node's incidence sketches, one per Borůvka round."""
        return self.engine().node_sketches(view.node, view.neighbors)


class SketchEngine:
    """Batched sketch builder for one interned :class:`SketchSpec`.

    Everything a node writes is a pure function of the public coins and
    its incidence list, so the engine derives the per-round sampler
    seeds once and streams each node's ``(slot, sign)`` incidence pairs
    through :meth:`L0Sampler.batch_update`.  The level and fingerprint
    power tables behind those updates are module-level caches in
    :mod:`repro.encoding.l0_sampling`, shared across nodes, rounds, and
    repeated runs — the first node on a graph warms them for everyone.
    """

    _instances: dict[tuple[int, int, int], "SketchEngine"] = {}

    def __init__(self, spec: SketchSpec) -> None:
        self.spec = spec
        self.round_seeds = tuple(spec.round_seed(r) for r in range(spec.rounds))
        # message bodies per (node, neighbors): pure in the public coins,
        # so repeated runs on the same graph reuse them outright.
        self._state_cache: dict[tuple[int, frozenset[int]], tuple] = {}

    @classmethod
    def for_spec(cls, spec: SketchSpec) -> "SketchEngine":
        key = (spec.n, spec.shared_seed, spec.rounds)
        engine = cls._instances.get(key)
        if engine is None:
            if len(cls._instances) > 4096:  # bound long-run memory
                cls._instances.clear()
            engine = cls._instances[key] = cls(spec)
        return engine

    def incidence(self, node: int, neighbors) -> tuple[list[int], list[int]]:
        """The node's incidence stream as parallel (slots, signs) lists."""
        n = self.spec.n
        slots: list[int] = []
        signs: list[int] = []
        for w in neighbors:
            if node < w:
                slots.append(edge_slot(node, w, n))
                signs.append(1)
            else:
                slots.append(edge_slot(w, node, n))
                signs.append(-1)
        return slots, signs

    def node_sketches(self, node: int, neighbors) -> list[L0Sampler]:
        """The node's incidence sketches, one per Borůvka round."""
        slots, signs = self.incidence(node, neighbors)
        levels = self.spec.levels
        out = []
        for seed in self.round_seeds:
            sampler = L0Sampler(seed=seed, levels=levels)
            sampler.batch_update(slots, signs)
            out.append(sampler)
        return out

    def node_states(self, node: int, neighbors) -> tuple:
        """The node's message body: per-round sampler states (cached)."""
        key = (node, frozenset(neighbors))
        body = self._state_cache.get(key)
        if body is None:
            if len(self._state_cache) > 8192:  # bound long-run memory
                self._state_cache.clear()
            body = tuple(s.state() for s in self.node_sketches(node, neighbors))
            self._state_cache[key] = body
        return body

    def samplers_from_states(self, body) -> list[L0Sampler]:
        """Rebuild one node's per-round samplers from a message body."""
        levels = self.spec.levels
        return [
            L0Sampler.from_state(self.round_seeds[r], levels, state)
            for r, state in enumerate(body)
        ]


class _SketchBase(Protocol):
    """Shared message format and Borůvka decoder."""

    designed_for = "SIMASYNC"

    def __init__(self, shared_seed: int, rounds: int | None = None) -> None:
        self.shared_seed = shared_seed
        self.rounds = rounds

    def _spec(self, n: int) -> SketchSpec:
        return SketchSpec.cached(n, self.shared_seed, self.rounds)

    def message(self, view: NodeView) -> Payload:
        engine = self._spec(view.n).engine()
        return (view.node, engine.node_states(view.node, view.neighbors))

    # -- decoding -------------------------------------------------------
    def _spanning_forest(self, board: BoardView, n: int) -> frozenset[Edge]:
        spec = self._spec(n)
        engine = spec.engine()
        sketches: dict[int, list[L0Sampler]] = {}
        for node, body in board:
            sketches[node] = engine.samplers_from_states(body)
        if set(sketches) != set(range(1, n + 1)):
            raise ValueError("incomplete sketch board")

        parent = list(range(n + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        # combined[c][r]: sketch of component c's member-sum for round r
        combined: dict[int, list[L0Sampler]] = {
            v: sketches[v] for v in range(1, n + 1)
        }
        forest: set[Edge] = set()
        for r in range(spec.rounds):
            roots = {find(v) for v in range(1, n + 1)}
            if len(roots) == 1:
                break
            picks: list[tuple[int, Edge]] = []
            for c in roots:
                got = combined[c][r].sample()
                if got is None:
                    continue
                slot, _weight = got
                try:
                    edge = slot_edge(slot, n)
                except ValueError:
                    continue  # failed recovery (negligible probability)
                picks.append((c, edge))
            for c, (u, v) in picks:
                ru, rv = find(u), find(v)
                if ru == rv:
                    continue
                # merge: union-find + sketch addition (linearity!)
                new = [a.combine(b) for a, b in zip(combined[ru], combined[rv])]
                parent[ru] = rv
                combined[rv] = new
                forest.add((min(u, v), max(u, v)))
            # A merge-less round is not terminal: later rounds use
            # independent samplers and may succeed where this one failed.
        return frozenset(forest)


class SketchSpanningForestProtocol(_SketchBase):
    """SPANNING-FOREST in randomized public-coin ``SIMASYNC[polylog n]``."""

    def __init__(self, shared_seed: int, rounds: int | None = None) -> None:
        super().__init__(shared_seed, rounds)
        self.name = f"sketch-spanning-forest(seed={shared_seed})"

    def output(self, board: BoardView, n: int) -> frozenset[Edge]:
        return self._spanning_forest(board, n)


class SketchDecodeScore(ScoreHook):
    """Protocol-supplied badness for the sketch protocols: hunt boards
    the Borůvka decoder cannot recover a full spanning structure from.

    Under-connection is the sketches' one-sided failure mode (ℓ₀-sample
    misses can only *lose* forest edges), so the score rewards — in
    lexicographic order — terminal boards the decoder rejects outright,
    then missing forest edges / a 0 connectivity verdict, then raw bits.
    Registered by the census as ``sketch-decode``.
    """

    name = "sketch-decode"

    def _badness(self, state) -> int:
        try:
            out = state.protocol.output(state.board_view(), state.n)
        except Exception:
            # Partial prefixes cannot decode yet; only a terminal board
            # the decoder rejects (lost/crashed writers) is the jackpot.
            return (1 << 20) if state.terminal else 0
        if isinstance(out, frozenset):
            return max((state.n - 1) - len(out), 0) * (1 << 10)
        return 0 if out else (1 << 10)

    def step_score(self, state) -> float:
        return self._badness(state) + state.last_event_bits

    def prefix_score(self, state) -> tuple:
        board = state.board
        return (self._badness(state), board.max_bits(), board.total_bits())


class SketchConnectivityProtocol(_SketchBase):
    """CONNECTIVITY in randomized public-coin ``SIMASYNC[polylog n]``.

    Output 1 iff the recovered spanning forest has ``n - 1`` edges.
    One-sided in practice: sampling failures can only under-connect, so
    a ``1`` answer is always backed by an explicit spanning tree."""

    def __init__(self, shared_seed: int, rounds: int | None = None) -> None:
        super().__init__(shared_seed, rounds)
        self.name = f"sketch-connectivity(seed={shared_seed})"

    def output(self, board: BoardView, n: int) -> int:
        return 1 if len(self._spanning_forest(board, n)) == n - 1 else 0
