"""Tests for the Lemma 4 protocol adapters."""

import pytest

from repro.core import ALL_MODELS, ASYNC, SIMASYNC, SIMSYNC, SYNC, RandomScheduler, run
from repro.core.schedulers import MaxIdScheduler, default_portfolio
from repro.core.simulator import all_executions
from repro.graphs import generators as gen
from repro.graphs.properties import canonical_bfs_forest, is_rooted_mis
from repro.hierarchy.adapters import FreezeAtActivation, SequentialLift, lift
from repro.graphs.families import family
from repro.protocols.bfs import BipartiteBfsAsyncProtocol, EobBfsProtocol
from repro.protocols.build import DegenerateBuildProtocol
from repro.protocols.mis import RootedMisProtocol
from repro.protocols.two_cliques import TWO_CLIQUES, TwoCliquesProtocol


class TestLiftDispatch:
    def test_simasync_protocol_is_identity_everywhere(self):
        p = DegenerateBuildProtocol(2)
        for model in ALL_MODELS:
            assert lift(p, model) is p

    def test_simsync_identity_to_itself(self):
        p = RootedMisProtocol(1)
        assert lift(p, SIMSYNC) is p

    def test_simsync_gets_sequential_lift_upward(self):
        p = RootedMisProtocol(1)
        assert isinstance(lift(p, ASYNC), SequentialLift)
        assert isinstance(lift(p, SYNC), SequentialLift)

    def test_async_gets_freeze_upward(self):
        p = EobBfsProtocol()
        assert lift(p, ASYNC) is p
        assert isinstance(lift(p, SYNC), FreezeAtActivation)

    def test_downward_rejected(self):
        with pytest.raises(ValueError):
            lift(RootedMisProtocol(1), SIMASYNC)
        with pytest.raises(ValueError):
            lift(EobBfsProtocol(), SIMSYNC)
        with pytest.raises(ValueError):
            lift(FreezeAtActivation(EobBfsProtocol()), ASYNC)

    def test_string_model_names_accepted(self):
        p = RootedMisProtocol(2)
        assert isinstance(lift(p, "SYNC"), SequentialLift)


class TestSequentialLift:
    def test_forces_identifier_order(self):
        g = gen.random_graph(6, 0.4, seed=2)
        lifted = SequentialLift(RootedMisProtocol(1))
        r = run(g, lifted, ASYNC, MaxIdScheduler())
        assert r.write_order == tuple(g.nodes())

    def test_single_schedule_exists(self):
        """The lift leaves the adversary no choices at all."""
        g = gen.random_graph(5, 0.5, seed=1)
        runs = list(all_executions(g, SequentialLift(RootedMisProtocol(2)), ASYNC))
        assert len(runs) == 1

    def test_mis_correct_through_lift(self):
        for seed in range(3):
            g = gen.random_connected_graph(10, 0.3, seed=seed)
            for model in (ASYNC, SYNC):
                lifted = lift(RootedMisProtocol(4), model)
                for sched in default_portfolio((0,)):
                    r = run(g, lifted, model, sched)
                    assert r.success and is_rooted_mis(g, r.output, 4)

    def test_two_cliques_correct_through_lift(self):
        g = gen.two_cliques(4)
        r = run(g, lift(TwoCliquesProtocol(), SYNC), SYNC, RandomScheduler(5))
        assert r.output == TWO_CLIQUES

    def test_wrapped_messages_carry_sender(self):
        g = gen.path_graph(3)
        r = run(g, SequentialLift(RootedMisProtocol(1)), ASYNC, MaxIdScheduler())
        for i, payload in enumerate(r.board.view()):
            assert payload[0] == "SEQ" and payload[1] == i + 1

    def test_one_adapter_serves_every_run(self):
        """A pure lift carries nothing between runs: one object run
        twice writes the same board as two separate objects."""
        g = gen.random_graph(6, 0.4, seed=4)
        lifted = SequentialLift(RootedMisProtocol(1))
        first = run(g, lifted, SYNC, RandomScheduler(0))
        again = run(g, lifted, SYNC, RandomScheduler(0))
        other = run(g, SequentialLift(RootedMisProtocol(1)), SYNC,
                    RandomScheduler(0))
        assert first.board.view() == again.board.view() == other.board.view()
        assert first.output == again.output == other.output


class TestFreezeAtActivation:
    def test_eob_bfs_in_sync(self):
        for seed in range(3):
            g = gen.random_even_odd_bipartite(10, 0.4, seed=seed)
            lifted = lift(EobBfsProtocol(), SYNC)
            for sched in default_portfolio((0,)):
                r = run(g, lifted, SYNC, sched)
                assert r.success and r.output == canonical_bfs_forest(g)

    def test_frozen_message_is_activation_snapshot(self):
        """Under SYNC the board grows between activation and write; the
        freeze adapter must ignore the growth."""
        from repro.core.protocol import NodeView, Protocol

        class BoardSize(Protocol):
            name = "boardsize"

            def wants_to_activate(self, view):
                return True

            def message(self, view):
                return (view.node, len(view.board))

            def output(self, board, n):
                return tuple(board)

        g = gen.path_graph(4)
        frozen = run(g, FreezeAtActivation(BoardSize()), SYNC, MaxIdScheduler())
        thawed = run(g, BoardSize(), SYNC, MaxIdScheduler())
        # all freeze-adapter messages were computed on the empty board
        assert all(p[1] == 0 for p in frozen.board.view())
        # without the adapter they see the real (growing) board
        assert [p[1] for p in thawed.board.view()] == [0, 1, 2, 3]

    def test_fresh_clears_cache(self):
        adapter = FreezeAtActivation(EobBfsProtocol())
        g = gen.random_even_odd_bipartite(6, 0.5, seed=0)
        run(g, adapter, SYNC, RandomScheduler(0))
        again = run(g, adapter, SYNC, RandomScheduler(1))
        assert again.success  # one adapter object serves every run


    @pytest.mark.parametrize("graph_class",
                             ["even-odd-bipartite", "bipartite", "all"])
    @pytest.mark.parametrize("protocol_cls",
                             [EobBfsProtocol, BipartiteBfsAsyncProtocol],
                             ids=lambda cls: cls.name)
    def test_lemma4_async_in_sync(self, protocol_cls, graph_class):
        """Lemma 4's ``ASYNC ⊆ SYNC``: under every adversary the lifted
        protocol's SYNC execution writes exactly the entries of the
        protocol's own ASYNC execution of the same schedule.  Both
        walks enumerate schedules in the same order, because the lift
        activates a node exactly when the inner protocol does."""
        for n in range(3, 7):
            g = family(graph_class).sample_in_class(n, 0)
            inner = protocol_cls()
            lifted = lift(inner, SYNC)
            sync_runs = list(all_executions(g, lifted, SYNC))
            async_runs = list(all_executions(g, inner, ASYNC))
            assert len(sync_runs) == len(async_runs)
            for s, a in zip(sync_runs, async_runs):
                assert s.schedule == a.schedule
                assert ([(e.author, e.payload, e.bits)
                         for e in s.board.entries]
                        == [(e.author, e.payload, e.bits)
                            for e in a.board.entries])
                assert s.output == a.output
                assert s.corrupted == a.corrupted


class TestLatticeData:
    def test_rows_cover_all_models(self):
        from repro.hierarchy.lattice import TABLE2_ROWS

        for row in TABLE2_ROWS:
            assert set(row.cells) == {m.name for m in ALL_MODELS}

    def test_statuses_are_known_values(self):
        from repro.hierarchy.lattice import TABLE2_ROWS

        for row in TABLE2_ROWS:
            for cell in row.cells.values():
                assert cell.status in {"yes", "no", "open", "yes*"}

    def test_monotone_along_chain(self):
        """A 'no' may never sit to the right of a 'yes' in Lemma 4's
        chain order (solvability is monotone)."""
        from repro.hierarchy.lattice import TABLE2_ROWS

        rank = {"no": 0, "open": 1, "yes*": 2, "yes": 2}
        for row in TABLE2_ROWS:
            values = [rank[row.cells[m.name].status] for m in ALL_MODELS]
            assert values == sorted(values), row.key

    def test_separations_recorded(self):
        from repro.hierarchy.lattice import SEPARATIONS

        witnesses = {s.witness for s in SEPARATIONS}
        assert "rooted MIS" in witnesses and "EOB-BFS" in witnesses
