"""Tests for the layered BFS protocols (Theorems 7, 10 and Corollary 4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ASYNC, SYNC, MinIdScheduler, RandomScheduler, run
from repro.core.schedulers import default_portfolio
from repro.core.execution import ExecutionState
from repro.core.protocol import NodeView
from repro.core.simulator import all_executions
from repro.core.whiteboard import BoardView
from repro.graphs import generators as gen
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.properties import canonical_bfs_forest, is_bipartite, is_even_odd_bipartite
from repro.protocols.bfs import (
    BfsRecord,
    BipartiteBfsAsyncProtocol,
    BoardState,
    EobBfsProtocol,
    SyncBfsProtocol,
    _Epoch,
    parse_board,
)
from repro.protocols.connectivity import ConnectivityProtocol
from repro.protocols.naive import NOT_EOB


class TestEobBfs:
    def test_random_instances_all_adversaries(self):
        for seed in range(5):
            g = gen.random_even_odd_bipartite(12, 0.35, seed=seed)
            ref = canonical_bfs_forest(g)
            for sched in default_portfolio((0, 1)):
                r = run(g, EobBfsProtocol(), ASYNC, sched)
                assert r.success and r.output == ref, (seed, sched.name)

    def test_exhaustive_small(self):
        g = gen.random_even_odd_bipartite(5, 0.6, seed=1)
        ref = canonical_bfs_forest(g)
        for r in all_executions(g, EobBfsProtocol(), ASYNC):
            assert r.success and r.output == ref, r.write_order

    def test_negative_answer_on_invalid_graphs(self):
        bad = LabeledGraph(6, [(1, 3), (3, 4), (4, 5), (2, 6)])
        for sched in default_portfolio((0, 1)):
            r = run(bad, EobBfsProtocol(), ASYNC, sched)
            assert r.success, "invalid graphs must still terminate"
            assert r.output == NOT_EOB

    def test_negative_answer_exhaustive(self):
        bad = LabeledGraph(4, [(1, 3), (2, 4)])  # both edges same-parity
        for r in all_executions(bad, EobBfsProtocol(), ASYNC):
            assert r.success and r.output == NOT_EOB

    def test_disconnected_components(self):
        g = LabeledGraph(9, [(1, 2), (2, 3), (5, 6), (8, 9)])
        assert is_even_odd_bipartite(g)
        r = run(g, EobBfsProtocol(), ASYNC, RandomScheduler(3))
        assert r.output == canonical_bfs_forest(g)
        assert set(r.output.roots) == {1, 4, 5, 7, 8}

    def test_edgeless(self):
        g = LabeledGraph(4)
        r = run(g, EobBfsProtocol(), ASYNC, MinIdScheduler())
        assert r.output == canonical_bfs_forest(g)

    def test_single_node(self):
        r = run(LabeledGraph(1), EobBfsProtocol(), ASYNC, MinIdScheduler())
        assert r.success and r.output.roots == (1,)

    def test_layers_written_in_order(self):
        """Layer-by-layer activation: within one component, write
        positions ordered by layer."""
        g = gen.random_even_odd_bipartite(10, 0.5, seed=4)
        r = run(g, EobBfsProtocol(), ASYNC, RandomScheduler(9))
        state = parse_board(r.board.view())
        for epoch in state.epochs:
            layers = [rec.layer for rec in epoch.records]
            assert layers == sorted(layers)


class TestBipartiteAsync:
    def test_bipartite_inputs(self):
        for seed in range(4):
            g = gen.random_bipartite(5, 6, 0.4, seed=seed)
            ref = canonical_bfs_forest(g)
            for sched in default_portfolio((0,)):
                r = run(g, BipartiteBfsAsyncProtocol(), ASYNC, sched)
                assert r.success and r.output == ref

    def test_even_cycle(self):
        g = gen.cycle_graph(8)
        r = run(g, BipartiteBfsAsyncProtocol(), ASYNC, RandomScheduler(1))
        assert r.success and r.output == canonical_bfs_forest(g)

    def test_deadlock_on_intra_layer_edge(self):
        """Triangle first, second component starves: the paper's
        corrupted-configuration behaviour."""
        g = LabeledGraph(5, [(1, 2), (1, 3), (2, 3), (4, 5)])
        r = run(g, BipartiteBfsAsyncProtocol(), ASYNC, MinIdScheduler())
        assert r.corrupted
        assert r.deadlocked_nodes == {4, 5}

    def test_never_wrong_only_deadlocked(self):
        """On non-bipartite inputs every run either deadlocks or outputs
        the correct forest — never a wrong forest."""
        for seed in range(6):
            g = gen.random_graph(8, 0.3, seed=seed + 40)
            ref = canonical_bfs_forest(g)
            r = run(g, BipartiteBfsAsyncProtocol(), ASYNC, RandomScheduler(seed))
            if r.success:
                assert r.output == ref


class TestSyncBfs:
    def test_arbitrary_graphs_all_adversaries(self):
        cases = [
            gen.random_graph(11, 0.25, seed=s) for s in range(4)
        ] + [
            gen.petersen_graph(),
            gen.complete_graph(6),
            gen.cycle_graph(7),
            gen.star_graph(8),
        ]
        for g in cases:
            ref = canonical_bfs_forest(g)
            for sched in default_portfolio((0, 1)):
                r = run(g, SyncBfsProtocol(), SYNC, sched)
                assert r.success and r.output == ref

    def test_exhaustive_small_nonbipartite(self):
        g = LabeledGraph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
        ref = canonical_bfs_forest(g)
        for r in all_executions(g, SyncBfsProtocol(), SYNC):
            assert r.success and r.output == ref, r.write_order

    def test_disconnected_with_triangles(self):
        g = LabeledGraph(8, [(1, 2), (2, 3), (3, 1), (5, 6), (6, 7), (7, 5)])
        for sched in default_portfolio((0,)):
            r = run(g, SyncBfsProtocol(), SYNC, sched)
            assert r.success and r.output == canonical_bfs_forest(g)

    def test_d0_field_nonzero_on_odd_cycles(self):
        """The general-graph certificate actually uses d0: some record of
        an odd cycle must count a same-layer neighbour."""
        g = gen.cycle_graph(5)
        r = run(g, SyncBfsProtocol(), SYNC, MinIdScheduler())
        d0s = [p[5] for p in r.board.view()]
        assert any(d > 0 for d in d0s)

    def test_message_bits_logarithmic(self):
        sizes = {}
        for n in (8, 32, 128):
            g = gen.random_connected_graph(n, 0.1, seed=n)
            r = run(g, SyncBfsProtocol(), SYNC, RandomScheduler(0))
            sizes[n] = r.max_message_bits
        assert sizes[128] < 2 * sizes[8]
        assert sizes[128] < 120


class TestBoardParsing:
    def test_rejects_garbage(self):
        from repro.core.whiteboard import BoardView

        with pytest.raises(ValueError):
            parse_board(BoardView((("X", 1),)))

    def test_rejects_record_before_root(self):
        from repro.core.whiteboard import BoardView

        with pytest.raises(ValueError):
            parse_board(BoardView((("B", 2, 1, 1, 1, 0),)))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=0, max_value=50),
)
def test_sync_bfs_matches_oracle_property(n, seed, sched_seed):
    g = gen.random_graph(n, 0.3, seed=seed)
    r = run(g, SyncBfsProtocol(), SYNC, RandomScheduler(sched_seed))
    assert r.success and r.output == canonical_bfs_forest(g)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=0, max_value=50),
)
def test_eob_bfs_decides_property(n, seed, sched_seed):
    g = gen.random_graph(n, 0.3, seed=seed)
    r = run(g, EobBfsProtocol(), ASYNC, RandomScheduler(sched_seed))
    assert r.success
    if is_even_odd_bipartite(g):
        assert r.output == canonical_bfs_forest(g)
    else:
        assert r.output == NOT_EOB


class _ViewSpy:
    """Mixin recording every board the engine hands the protocol."""

    def __init__(self):
        self.seen = []

    def wants_to_activate(self, view):
        self.seen.append(view.board)
        return super().wants_to_activate(view)

    def message(self, view):
        self.seen.append(view.board)
        return super().message(view)


class _SpySyncBfs(_ViewSpy, SyncBfsProtocol):
    pass


class _SpyConnectivity(_ViewSpy, ConnectivityProtocol):
    pass


class _SpyEobBfs(_ViewSpy, EobBfsProtocol):
    pass


def _scratch_view(state):
    return BoardView(tuple(e.payload for e in state.board.entries))


def _parsed(board):
    """``parse_board`` outcome, with a parse error as a comparable value
    (fault-perturbed boards may be unparseable)."""
    try:
        return parse_board(board)
    except ValueError as exc:
        return repr(exc)


def _assert_views(state, spy, allowed):
    """Every board handed out since the last check, and the state's own
    view, equals (with the same hash) a from-scratch view of one of the
    ``allowed`` boards, and parses like a from-scratch parse."""
    boards = spy.seen + [state.board_view()]
    spy.seen.clear()
    assert state.board_view() == _scratch_view(state)
    for board in boards:
        assert board in allowed
        match = next(a for a in allowed if a == board)
        assert hash(board) == hash(match)
        assert _parsed(board) == _parsed(BoardView(board.payloads))


def _walk_views(state, spy, copies):
    """Exhaustive DFS with snapshot/restore, checking every board view;
    at each node a copy() fork takes a step the walk takes last, so a
    fork that leaked into its origin would show in the origin's first
    child."""
    here = _scratch_view(state)
    _assert_views(state, spy, [here])
    if copies:
        fork = state.copy()
        _assert_views(fork, spy, [here])
        if fork.candidates:
            fork.advance(fork.candidates[-1])
            _assert_views(fork, spy, [here, _scratch_view(fork)])
    checkpoint = state.depth
    for choice in state.candidates:
        state.advance(choice)
        _assert_views(state, spy, [here, _scratch_view(state)])
        _walk_views(state, spy, copies)
        state.restore(checkpoint)
        _assert_views(state, spy, [here])


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.sampled_from([0.3, 0.6, 0.9]),
    st.integers(min_value=0, max_value=10 ** 6),
    st.sampled_from([(_SpySyncBfs, SYNC), (_SpyConnectivity, SYNC),
                     (_SpyEobBfs, ASYNC), (_SpyEobBfs, SYNC)]),
    st.sampled_from([None, "crash:1,loss:1", "dup:1"]),
    st.booleans(),
)
def test_engine_views_match_scratch_views_property(n, p, seed, cell, faults,
                                                   copies):
    """The engine's incremental board views (one per write, extended on
    advance, truncated on restore, shared by copy()) and the memoized
    BFS parse agree with views and parses built from scratch."""
    spy_cls, model = cell
    spy = spy_cls()
    g = gen.random_connected_graph(n, p, seed=seed)
    state = ExecutionState.initial(g, spy, model, faults=faults)
    _walk_views(state, spy, copies)


def test_fold_extends_parent_memo():
    """A view built by extended() folds one step past its parent's
    memoized accumulator; a parentless equal view folds from scratch to
    the same value."""
    calls = []

    def step(acc, payload):
        calls.append(payload)
        return acc + (payload,)

    root = BoardView(())
    a = root.extended(("x",))
    b = a.extended(("y",))
    assert b.fold(step, ()) == (("x",), ("y",))
    assert calls == [("x",), ("y",)]
    assert b.fold(step, ()) == (("x",), ("y",))
    c = b.extended(("z",))
    assert c.fold(step, ()) == (("x",), ("y",), ("z",))
    assert calls == [("x",), ("y",), ("z",)]
    scratch = BoardView(c.payloads)
    assert scratch == c and hash(scratch) == hash(c)
    assert scratch.fold(step, ()) == c.fold(step, ())
    assert len(calls) == 6


def _reference_bfs_payload(proto, view, state):
    """The four-pass record formula: minimal written-neighbour layer,
    the neighbours on it, their smallest identifier, and the count one
    layer above it."""
    epoch = state.current
    neigh = ([] if epoch is None
             else [r for r in epoch.records if r.node in view.neighbors])
    if not neigh:
        if proto.track_same_layer:
            return ("B", view.node, 0, "ROOT", 0, 0, view.degree)
        return ("B", view.node, 0, "ROOT", 0, view.degree)
    lam = min(r.layer for r in neigh)
    layer = lam + 1
    prev = [r for r in neigh if r.layer == lam]
    parent = min(r.node for r in prev)
    d_prev = len(prev)
    if proto.track_same_layer:
        d_same = sum(1 for r in neigh if r.layer == layer)
        return ("B", view.node, layer, parent, d_prev, d_same,
                view.degree - d_prev)
    return ("B", view.node, layer, parent, d_prev, view.degree - d_prev)


@st.composite
def _neighbour_records(draw):
    """A current epoch of BFS records (distinct writers, arbitrary
    layers and counts, in any write order) and a neighbourhood that
    covers some of them plus some unwritten nodes."""
    nodes = draw(st.lists(st.integers(1, 30), unique=True, max_size=12))
    records = tuple(
        BfsRecord(v, draw(st.integers(0, 4)), draw(st.integers(0, 30)),
                  draw(st.integers(0, 5)), draw(st.integers(0, 5)),
                  draw(st.integers(0, 5)))
        for v in nodes
    )
    neighbors = frozenset(
        draw(st.sets(st.sampled_from(nodes))) if nodes else ()
    ) | draw(st.frozensets(st.integers(31, 40), max_size=3))
    epochs = draw(st.sampled_from([(), (_Epoch(records),)]))
    state = BoardState(epochs, frozenset(nodes), False)
    return NodeView(99, neighbors, 40, BoardView(())), state


@pytest.mark.parametrize(
    "proto", [SyncBfsProtocol(), BipartiteBfsAsyncProtocol()],
    ids=["track_same_layer", "bipartite"],
)
@settings(max_examples=200, deadline=None)
@given(case=_neighbour_records())
def test_one_pass_bfs_payload_matches_reference(proto, case):
    view, state = case
    assert proto._bfs_payload(view, state) == _reference_bfs_payload(
        proto, view, state)
