"""Differential tests: event-loop engine vs reference configuration
semantics, for every protocol in the package."""

import pytest

from repro.core import ALL_MODELS, ASYNC, SIMASYNC, SIMSYNC, SYNC, RandomScheduler, run
from repro.core.reference import (
    Configuration,
    NodeState,
    ReplayError,
    replay,
    validate_run,
)
from repro.core.schedulers import default_portfolio
from repro.graphs import generators as gen
from repro.graphs.labeled_graph import LabeledGraph
from repro.hierarchy.adapters import lift
from repro.protocols.bfs import BipartiteBfsAsyncProtocol, EobBfsProtocol, SyncBfsProtocol
from repro.protocols.build import DegenerateBuildProtocol
from repro.protocols.build_extended import ExtendedBuildProtocol
from repro.protocols.mis import RootedMisProtocol
from repro.protocols.two_cliques import TwoCliquesProtocol


def _check(graph, protocol, model, scheduler):
    result = run(graph, protocol, model, scheduler)
    violations = validate_run(graph, protocol, model, result)
    assert not violations, violations
    return result


class TestDifferentialAgreement:
    def test_build_all_models(self):
        g = gen.random_k_degenerate(9, 2, seed=1)
        for model in ALL_MODELS:
            for sched in default_portfolio((0,)):
                _check(g, DegenerateBuildProtocol(2), model, sched)

    def test_extended_build(self):
        g = gen.complete_graph(6)
        _check(g, ExtendedBuildProtocol(1), SIMASYNC, RandomScheduler(2))

    def test_mis(self):
        g = gen.random_connected_graph(8, 0.3, seed=3)
        for sched in default_portfolio((0, 1)):
            _check(g, RootedMisProtocol(2), SIMSYNC, sched)

    def test_mis_lifted(self):
        g = gen.random_connected_graph(7, 0.4, seed=4)
        for model in (ASYNC, SYNC):
            _check(g, lift(RootedMisProtocol(1), model), model, RandomScheduler(5))

    def test_two_cliques(self):
        _check(gen.two_cliques(4), TwoCliquesProtocol(), SIMSYNC, RandomScheduler(0))

    def test_eob_bfs(self):
        g = gen.random_even_odd_bipartite(9, 0.4, seed=5)
        for sched in default_portfolio((0, 1)):
            _check(g, EobBfsProtocol(), ASYNC, sched)

    def test_eob_bfs_invalid_input(self):
        g = LabeledGraph(5, [(1, 3), (2, 4), (4, 5)])
        _check(g, EobBfsProtocol(), ASYNC, RandomScheduler(1))

    def test_sync_bfs(self):
        g = gen.random_graph(9, 0.3, seed=6)
        for sched in default_portfolio((0,)):
            _check(g, SyncBfsProtocol(), SYNC, sched)

    def test_deadlocked_run_agrees(self):
        g = LabeledGraph(5, [(1, 2), (1, 3), (2, 3), (4, 5)])
        result = run(g, BipartiteBfsAsyncProtocol(), ASYNC, RandomScheduler(0))
        assert result.corrupted
        violations = validate_run(g, BipartiteBfsAsyncProtocol(), ASYNC, result)
        assert not violations


class TestReplaySemantics:
    def test_configuration_count(self):
        g = gen.path_graph(4)
        configs = replay(g, DegenerateBuildProtocol(1), SIMASYNC, [2, 1, 4, 3])
        # C_0, C_1 (activation), + one per write
        assert len(configs) == 2 + 4

    def test_initial_configuration(self):
        g = gen.path_graph(3)
        c0 = replay(g, DegenerateBuildProtocol(1), SIMASYNC, [1, 2, 3])[0]
        assert all(s is NodeState.AWAKE for s in c0.states)
        assert all(m is None for m in c0.memories)
        assert c0.board == ()

    def test_simultaneous_activation_round(self):
        g = gen.path_graph(3)
        c1 = replay(g, DegenerateBuildProtocol(1), SIMASYNC, [1, 2, 3])[1]
        assert all(s is NodeState.ACTIVE for s in c1.states)
        assert all(m is not None for m in c1.memories)

    def test_final_classification(self):
        g = gen.path_graph(3)
        configs = replay(g, DegenerateBuildProtocol(1), SIMSYNC, [3, 1, 2])
        assert configs[-1].is_successful and configs[-1].is_final
        assert not configs[-1].is_corrupted

    def test_invalid_orders_rejected(self):
        g = gen.path_graph(3)
        p = DegenerateBuildProtocol(1)
        with pytest.raises(ReplayError):
            replay(g, p, SIMASYNC, [1, 1, 2])  # repeat
        with pytest.raises(ReplayError):
            replay(g, p, SIMASYNC, [9])  # unknown node
        # free-model node that never activated cannot be written
        with pytest.raises(ReplayError):
            replay(g, EobBfsProtocol(), ASYNC, [3])

    def test_helpers(self):
        cfg = Configuration(
            (NodeState.TERMINATED, NodeState.AWAKE),
            ((1,), None),
            ((1,),),
        )
        assert cfg.state_of(2) is NodeState.AWAKE
        assert cfg.memory_of(1) == (1,)
        assert cfg.is_final and cfg.is_corrupted and not cfg.is_successful


class TestViolationDetection:
    """The validator must actually catch broken runs — tamper and see."""

    def test_detects_board_tampering(self):
        from dataclasses import replace

        g = gen.path_graph(3)
        p = DegenerateBuildProtocol(1)
        result = run(g, p, SIMASYNC, RandomScheduler(1))
        entry = result.board.entries[0]
        tampered_entry = type(entry)(
            entry.index, entry.author, ("FAKE",), entry.bits, entry.round_written
        )
        result.board.entries[0] = tampered_entry
        violations = validate_run(g, p, SIMASYNC, result)
        assert any("board mismatch" in v for v in violations)

    def test_detects_unrealisable_order(self):
        from dataclasses import replace

        g = gen.path_graph(3)
        p = EobBfsProtocol()
        result = run(g, p, ASYNC, RandomScheduler(0))
        bad = replace(result, write_order=(3, 2, 1))
        violations = validate_run(g, p, ASYNC, bad)
        assert violations and "not realisable" in violations[0]
