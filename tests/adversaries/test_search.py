"""Adversary searches vs. exhaustive ground truth on small fixtures.

Acceptance contract: on every exhaustively-checkable fixture, each
search strategy's worst witness matches the exhaustive maximum (bits),
and the deadlock seeker finds a deadlock iff one exists.  Every witness
must be *sound* everywhere: its schedule replays to a terminal run with
exactly the claimed accounting.
"""

import pickle

import pytest

from repro.adversaries import (
    BeamSearchAdversary,
    BranchAndBoundAdversary,
    DeadlockAdversary,
    GreedyBitsAdversary,
    SearchContext,
    TranspositionTable,
    default_search_portfolio,
    worst_witness,
)
from repro.adversaries import bnb as bnb_module
from repro.core.execution import ExecutionState, replay_schedule
from repro.core.models import ASYNC, SIMASYNC, SIMSYNC, SYNC
from repro.core.protocol import NodeView, Protocol
from repro.core.simulator import all_executions, terminal_states
from repro.faults.spec import resolve_faults
from repro.graphs import generators as gen
from repro.graphs.labeled_graph import LabeledGraph
from repro.protocols.bfs import BipartiteBfsAsyncProtocol, EobBfsProtocol
from repro.protocols.build import DegenerateBuildProtocol


class EchoProtocol(Protocol):
    """Writes (id, #messages on the board): board-sensitive bits."""

    name = "echo"

    def message(self, view: NodeView):
        return (view.node, len(view.board))

    def output(self, board, n):
        return tuple(board)


class LateEcho(Protocol):
    """Nodes 2 and 3 write how many messages precede them; 1 and 4
    write 0.  On a path of 4 the first leaf is not maximal, and four
    leaves tie for the maximum."""

    name = "late-echo"

    def message(self, view: NodeView):
        return (view.node, len(view.board) if view.node in (2, 3) else 0)

    def output(self, board, n):
        return tuple(board)


class PickyActivation(Protocol):
    """Node v activates once v-1 nodes have written."""

    name = "picky"

    def wants_to_activate(self, view: NodeView) -> bool:
        return len(view.board) >= view.node - 1

    def message(self, view: NodeView):
        return (view.node,)

    def output(self, board, n):
        return tuple(p[0] for p in board)


def _fixture(tag, graph, protocol_factory, model):
    return pytest.param(graph, protocol_factory, model, id=tag)


#: Exhaustively-checkable fixtures (n <= 6).  The disconnected bipartite
#: instance deadlocks under ASYNC; the rest always complete.
FIXTURES = [
    _fixture("build-simasync", gen.random_k_degenerate(5, 2, seed=3),
             lambda: DegenerateBuildProtocol(2), SIMASYNC),
    _fixture("echo-simsync", gen.path_graph(4), EchoProtocol, SIMSYNC),
    _fixture("echo-sync-picky", gen.path_graph(4), PickyActivation, SYNC),
    _fixture("eob-bfs-async", gen.random_even_odd_bipartite(6, 0.5, seed=1),
             EobBfsProtocol, ASYNC),
    _fixture("bipartite-deadlock",
             LabeledGraph(5, [(1, 2), (1, 3), (2, 3), (4, 5)]),
             BipartiteBfsAsyncProtocol, ASYNC),
]

#: Strategies that are exact on every small fixture: branch-and-bound
#: sweeps the whole tree; a beam wider than any prefix level at n <= 6
#: cannot prune the optimum.
EXACT = [
    pytest.param(lambda: BranchAndBoundAdversary(), id="branch-and-bound"),
    pytest.param(lambda: BeamSearchAdversary(width=720, restarts=0),
                 id="beam-exhaustive-width"),
]

#: Heuristic strategies, exact on these fixtures (checked below) but not
#: in general.
HEURISTIC = [
    pytest.param(lambda: GreedyBitsAdversary(restarts=4), id="greedy"),
    pytest.param(lambda: BeamSearchAdversary(width=8), id="beam-8"),
]


def ground_truth(graph, protocol_factory, model):
    bits = 0
    deadlock = False
    for result in all_executions(graph, protocol_factory(), model):
        bits = max(bits, result.max_message_bits)
        deadlock |= result.corrupted
    return bits, deadlock


class TestAgainstExhaustive:
    @pytest.mark.parametrize("make_strategy", EXACT + HEURISTIC)
    @pytest.mark.parametrize("graph,protocol_factory,model", FIXTURES)
    def test_witness_is_sound(self, graph, protocol_factory, model,
                              make_strategy):
        """Every witness replays to exactly the claimed accounting."""
        witness = make_strategy().search(graph, protocol_factory(), model)
        replayed = replay_schedule(graph, protocol_factory(), model,
                                   witness.schedule)
        assert replayed.max_message_bits == witness.bits
        assert replayed.total_bits == witness.total_bits
        assert replayed.corrupted == witness.deadlock
        exhaustive_bits, _ = ground_truth(graph, protocol_factory, model)
        assert witness.bits <= exhaustive_bits

    @pytest.mark.parametrize("make_strategy", EXACT)
    @pytest.mark.parametrize("graph,protocol_factory,model", FIXTURES)
    def test_exact_strategies_match_exhaustive_max(
            self, graph, protocol_factory, model, make_strategy):
        exhaustive_bits, has_deadlock = ground_truth(
            graph, protocol_factory, model)
        witness = make_strategy().search(graph, protocol_factory(), model)
        if witness.deadlock:
            assert has_deadlock
        else:
            assert witness.bits == exhaustive_bits

    @pytest.mark.parametrize("make_strategy", HEURISTIC)
    @pytest.mark.parametrize("graph,protocol_factory,model", FIXTURES)
    def test_heuristics_match_exhaustive_max_on_fixtures(
            self, graph, protocol_factory, model, make_strategy):
        exhaustive_bits, has_deadlock = ground_truth(
            graph, protocol_factory, model)
        witness = make_strategy().search(graph, protocol_factory(), model)
        if witness.deadlock:
            assert has_deadlock
        else:
            assert witness.bits == exhaustive_bits

    @pytest.mark.parametrize("graph,protocol_factory,model", FIXTURES)
    def test_deadlock_seeker_iff_deadlock_exists(self, graph,
                                                 protocol_factory, model):
        _, has_deadlock = ground_truth(graph, protocol_factory, model)
        witness = DeadlockAdversary().search(graph, protocol_factory(), model)
        assert witness.deadlock == has_deadlock
        replayed = replay_schedule(graph, protocol_factory(), model,
                                   witness.schedule)
        assert replayed.corrupted == witness.deadlock


#: Faulted and reliable bnb cells: the SIMASYNC collapse (reliable
#: only), genuinely branching faulted SIMASYNC trees, and asynchronous
#: trees with frozen-tail collapses (reliable, and crash-faulted where
#: a crash can still deadlock a BFS layer).
BNB_CELLS = [
    pytest.param(gen.random_k_degenerate(5, 2, seed=0),
                 DegenerateBuildProtocol(2), SIMASYNC, None,
                 id="build-simasync-reliable"),
    pytest.param(gen.random_k_degenerate(5, 2, seed=0),
                 DegenerateBuildProtocol(2), SIMASYNC, "crash:1",
                 id="build-simasync-crash"),
    pytest.param(gen.random_even_odd_bipartite(6, 0.5, seed=1),
                 EobBfsProtocol(), ASYNC, None,
                 id="eob-async-reliable"),
    pytest.param(gen.random_k_degenerate(6, 2, seed=0),
                 DegenerateBuildProtocol(2), SIMASYNC, "crash:1",
                 id="build-simasync-n6-crash"),
    pytest.param(gen.random_even_odd_bipartite(6, 0.5, seed=1),
                 EobBfsProtocol(), ASYNC, "crash:1",
                 id="eob-async-crash"),
    pytest.param(gen.random_k_degenerate(5, 2, seed=0),
                 DegenerateBuildProtocol(2), SIMASYNC, "crash:1,loss:1",
                 id="build-simasync-crash-loss"),
]

#: The cells whose sweep actually branches (and so fills a table): all
#: but the reliable SIMASYNC collapse, which never consults one.
BRANCHING_CELLS = [cell for cell in BNB_CELLS
                   if cell.id != "build-simasync-reliable"]


class TestBranchAndBoundExact:
    @staticmethod
    def exhaustive_worst(graph, proto, model, faults):
        """The exhaustive authority: rank-max with first-on-tie."""
        best = None
        for r in all_executions(graph, proto, model, faults=faults):
            rank = (bool(r.deadlocked_nodes), r.max_message_bits,
                    r.total_bits)
            if best is None or rank > best[0]:
                best = (rank, r.schedule)
        return best

    @pytest.mark.parametrize("graph,proto,model,faults", BNB_CELLS)
    @pytest.mark.parametrize("shared", [False, True],
                             ids=["table-off", "table-on"])
    def test_field_identical_to_exhaustive(self, graph, proto, model,
                                           faults, shared):
        rank, schedule = self.exhaustive_worst(graph, proto, model, faults)
        ctx = SearchContext(table=TranspositionTable()) if shared else None
        witness = BranchAndBoundAdversary().search(
            graph, proto, model, context=ctx, faults=faults)
        assert (witness.deadlock, witness.bits, witness.total_bits) == rank
        assert witness.schedule == schedule

    def test_second_search_reuses_exact_entries(self):
        """A second search over the same shared table must not
        re-expand what the first stored — witness fields unchanged,
        strictly less new exploration."""
        g = gen.random_k_degenerate(6, 2, seed=0)
        proto = DegenerateBuildProtocol(2)
        ctx = SearchContext(table=TranspositionTable())
        first = BranchAndBoundAdversary().search(
            g, proto, SIMASYNC, context=ctx, faults="crash:1")
        spent = ctx.stats.steps
        second = BranchAndBoundAdversary().search(
            g, proto, SIMASYNC, context=ctx, faults="crash:1")
        assert (second.schedule, second.bits, second.total_bits) == (
            first.schedule, first.bits, first.total_bits)
        assert ctx.stats.steps - spent < spent

    @pytest.mark.parametrize("graph,proto,model,faults", BNB_CELLS)
    def test_table_free_sweep_builds_no_completions(
            self, graph, proto, model, faults, monkeypatch):
        """Frontiers only pay off when a table stores them, so the
        table-free sweep must never construct a ``Completion``."""
        def forbidden(*args, **kwargs):
            raise AssertionError("table-free sweep built a Completion")

        monkeypatch.setattr(bnb_module, "Completion", forbidden)
        rank, schedule = self.exhaustive_worst(graph, proto, model, faults)
        witness = BranchAndBoundAdversary().search(
            graph, proto, model, faults=faults)
        assert (witness.deadlock, witness.bits, witness.total_bits) == rank
        assert witness.schedule == schedule

    @pytest.mark.parametrize("graph,proto,model,faults", BRANCHING_CELLS)
    def test_stored_frontiers_are_exact(self, graph, proto, model, faults):
        """Every entry the sweep stores holds a frontier (so it is
        exact), none of its completions is dominated by an earlier one,
        ``deadlock_free`` agrees with it, and the root's frontier ranks
        the witness first."""
        table = TranspositionTable()
        witness = BranchAndBoundAdversary().search(
            graph, proto, model, context=SearchContext(table=table),
            faults=faults)
        rows = table.export_dirty()
        assert rows
        for _, entry in rows:
            assert entry.exact
            kept = entry.completions
            assert not any(earlier.dominates(later)
                           for i, later in enumerate(kept)
                           for earlier in kept[:i])
            assert entry.deadlock_free == (
                not any(c.deadlock for c in kept))
        root = ExecutionState.initial(graph, proto, model,
                                      faults=resolve_faults(faults))
        frontier = table.get(root.config_key()).completions
        best = max(frontier, key=lambda c: (c.deadlock, c.max_bits,
                                            c.total_bits))
        assert (best.deadlock, best.max_bits, best.total_bits) == (
            witness.deadlock, witness.bits, witness.total_bits)
        assert best.suffix == witness.schedule


class TestStrategyMechanics:
    def test_bnb_has_no_bounds_knob(self):
        with pytest.raises(TypeError):
            BranchAndBoundAdversary(bounds=False)

    def test_portfolio_is_picklable(self):
        for strategy in default_search_portfolio():
            clone = pickle.loads(pickle.dumps(strategy))
            assert clone.name == strategy.name

    def test_deterministic_per_seed(self):
        g = gen.random_even_odd_bipartite(6, 0.5, seed=1)
        for make in (lambda: GreedyBitsAdversary(restarts=3, seed=9),
                     lambda: BeamSearchAdversary(width=4, restarts=2, seed=9)):
            a = make().search(g, EobBfsProtocol(), ASYNC)
            b = make().search(g, EobBfsProtocol(), ASYNC)
            assert a == b

    def test_budgeted_bnb_is_anytime(self):
        g = gen.path_graph(6)
        witness = BranchAndBoundAdversary(max_steps=10, restarts=1).search(
            g, EchoProtocol(), SIMSYNC)
        # Truncated search still returns a sound, replayable witness.
        replayed = replay_schedule(g, EchoProtocol(), SIMSYNC,
                                   witness.schedule)
        assert replayed.max_message_bits == witness.bits

    def test_deadlock_budget_returns_completion(self):
        g = gen.random_even_odd_bipartite(6, 0.5, seed=1)
        witness = DeadlockAdversary(max_steps=5).search(
            g, EobBfsProtocol(), ASYNC)
        assert not witness.deadlock
        replay_schedule(g, EobBfsProtocol(), ASYNC, witness.schedule)

    def test_ties_keep_the_first_maximal_leaf(self):
        """A leaf replaces the incumbent only when it ranks strictly
        worse, so of tied maximal leaves the first one found wins.  The
        SYNC instance activates every node in round 0 and has no frozen
        tail, so the unshuffled bnb sweep meets its leaves in
        ``terminal_states`` order; the deadlock DFS does too, since every
        child there has the same number of candidates."""
        g = gen.path_graph(4)
        leaves = [((s.deadlocked, s.board.max_bits(), s.board.total_bits()),
                   s.schedule)
                  for s in terminal_states(
                      ExecutionState.initial(g, LateEcho(), SYNC))]
        top = max(rank for rank, _ in leaves)
        tied = [schedule for rank, schedule in leaves if rank == top]
        assert len(tied) == 4 and leaves[0][0] < top
        bnb = BranchAndBoundAdversary().search(g, LateEcho(), SYNC)
        assert (bnb.deadlock, bnb.bits, bnb.total_bits) == top
        assert bnb.schedule == tied[0] == (1, 4, 2, 3)
        assert bnb.explored == 4 + 4 * 3 + 4 * 3 * 2 * 2  # every tree edge
        dfs = DeadlockAdversary().search(g, LateEcho(), SYNC)
        assert (dfs.deadlock, dfs.bits, dfs.total_bits) == top
        assert dfs.schedule == tied[0]
        assert dfs.explored == 2 * bnb.explored  # every edge probed, then walked

    def test_worst_witness_ranking(self):
        from repro.adversaries.base import Witness

        small = Witness("a", (1,), 5, 9, False, 1)
        big = Witness("b", (2,), 7, 9, False, 1)
        dead = Witness("c", (3,), 1, 1, True, 1)
        assert worst_witness(small, big) is big
        assert worst_witness(big, dead) is dead
        with pytest.raises(ValueError):
            worst_witness(None)

    def test_stateful_protocols_supported(self):
        from repro.hierarchy.adapters import FreezeAtActivation

        g = gen.path_graph(4)
        proto = FreezeAtActivation(EchoProtocol())
        exhaustive_bits, _ = ground_truth(
            g, lambda: FreezeAtActivation(EchoProtocol()), SYNC)
        witness = BranchAndBoundAdversary().search(g, proto, SYNC)
        assert witness.bits == exhaustive_bits
