"""Tests for the round-based execution engine — the Section 2 semantics."""

import math

import pytest

from repro.core.errors import MessageTooLarge, ProtocolViolation, SchedulerError
from repro.core.models import ALL_MODELS, ASYNC, SIMASYNC, SIMSYNC, SYNC
from repro.core.protocol import NodeView, Protocol
from repro.core.schedulers import (
    FixedOrderScheduler,
    MaxIdScheduler,
    MinIdScheduler,
    RandomScheduler,
    Scheduler,
)
from repro.core.simulator import all_executions, count_executions, run
from repro.graphs.generators import path_graph, random_graph
from repro.graphs.labeled_graph import LabeledGraph
from repro.hierarchy.adapters import FreezeAtActivation, SequentialLift


class EchoProtocol(Protocol):
    """Writes (id, #messages already on the board): board-sensitive."""

    name = "echo"

    def message(self, view: NodeView):
        return (view.node, len(view.board))

    def output(self, board, n):
        return tuple(board)


class LocalOnlyProtocol(Protocol):
    """Writes (id, degree): board-insensitive (true SIMASYNC style)."""

    name = "local"

    def message(self, view: NodeView):
        return (view.node, view.degree)

    def output(self, board, n):
        return sorted(board)


class PickyActivation(Protocol):
    """Free-model protocol: node v activates once v-1 nodes have written
    (forces the identifier order)."""

    name = "picky"

    def wants_to_activate(self, view: NodeView) -> bool:
        return len(view.board) >= view.node - 1

    def message(self, view: NodeView):
        return (view.node,)

    def output(self, board, n):
        return tuple(p[0] for p in board)


class FirstWriterEcho(Protocol):
    """Endpoints activate at once; an inner node waits for a write and
    then echoes the board, so its message names the first writer."""

    name = "first-writer-echo"

    def wants_to_activate(self, view: NodeView) -> bool:
        return view.degree == 1 or len(view.board) > 0

    def message(self, view: NodeView):
        return (view.node, tuple(view.board))

    def output(self, board, n):
        return tuple(board)


class NeverActivate(Protocol):
    name = "never"

    def wants_to_activate(self, view: NodeView) -> bool:
        return False

    def message(self, view: NodeView):
        return 0

    def output(self, board, n):
        return None


class TestBasicExecution:
    def test_all_nodes_write_once(self):
        g = random_graph(6, 0.5, seed=0)
        r = run(g, LocalOnlyProtocol(), SIMASYNC, RandomScheduler(1))
        assert r.success and sorted(r.write_order) == list(g.nodes())
        assert len(r.board) == g.n

    def test_output_computed_on_success(self):
        g = path_graph(3)
        r = run(g, LocalOnlyProtocol(), SIMASYNC, MinIdScheduler())
        assert r.output == [(1, 1), (2, 2), (3, 1)]

    def test_single_node(self):
        r = run(LabeledGraph(1), LocalOnlyProtocol(), SYNC, MinIdScheduler())
        assert r.success and r.write_order == (1,)

    def test_bits_accounting(self):
        g = path_graph(4)
        r = run(g, LocalOnlyProtocol(), SIMASYNC, MinIdScheduler())
        assert r.total_bits == sum(e.bits for e in r.board.entries)
        assert r.max_message_bits == max(e.bits for e in r.board.entries)


class TestModelSemantics:
    def test_simultaneous_models_activate_everyone_at_round_zero(self):
        g = path_graph(4)
        for model in (SIMASYNC, SIMSYNC):
            r = run(g, EchoProtocol(), model, MinIdScheduler())
            assert all(r.activation_round[v] == 0 for v in g.nodes())

    def test_simasync_messages_frozen_on_empty_board(self):
        """ASYNC freezing: every message was computed before any write,
        so the board-size field is 0 for all nodes."""
        g = path_graph(5)
        r = run(g, EchoProtocol(), SIMASYNC, MaxIdScheduler())
        assert all(payload[1] == 0 for payload in r.board.view())

    def test_simsync_messages_recomputed_at_write(self):
        """SYNC recomputation: the i-th written message sees i-1 previous
        messages."""
        g = path_graph(5)
        r = run(g, EchoProtocol(), SIMSYNC, MaxIdScheduler())
        assert [p[1] for p in r.board.view()] == [0, 1, 2, 3, 4]

    def test_async_freezes_at_activation(self):
        """In ASYNC with staged activations, each message records the
        board size at *activation*, not at write."""
        g = path_graph(4)
        r = run(g, PickyActivation(), ASYNC, MinIdScheduler())
        # identifier order is forced: 1, 2, 3, 4
        assert r.output == (1, 2, 3, 4)
        assert [r.activation_round[v] for v in (1, 2, 3, 4)] == [0, 1, 2, 3]

    def test_sync_free_activation(self):
        g = path_graph(4)
        r = run(g, PickyActivation(), SYNC, MaxIdScheduler())
        assert r.success and r.output == (1, 2, 3, 4)

    def test_deadlock_detection(self):
        g = path_graph(3)
        r = run(g, NeverActivate(), ASYNC, MinIdScheduler())
        assert r.corrupted and not r.success
        assert r.output is None
        assert r.deadlocked_nodes == {1, 2, 3}

    def test_simultaneous_model_ignores_activation_refusal(self):
        """SIM* models force activation after round 1 even if the
        protocol's act function would decline."""
        g = path_graph(3)
        r = run(g, NeverActivate(), SIMASYNC, MinIdScheduler())
        assert r.success


class TestBudgetsAndErrors:
    def test_bit_budget_enforced(self):
        g = path_graph(3)
        with pytest.raises(MessageTooLarge):
            run(g, LocalOnlyProtocol(), SIMASYNC, MinIdScheduler(), bit_budget=3)

    def test_generous_budget_passes(self):
        g = path_graph(3)
        r = run(g, LocalOnlyProtocol(), SIMASYNC, MinIdScheduler(), bit_budget=64)
        assert r.success

    def test_bad_payload_raises_protocol_violation(self):
        class Bad(Protocol):
            name = "bad"

            def message(self, view):
                return {1, 2}  # sets are not payloads

            def output(self, board, n):
                return None

        with pytest.raises(ProtocolViolation):
            run(path_graph(2), Bad(), SIMASYNC, MinIdScheduler())

    def test_rogue_scheduler_rejected(self):
        class Rogue(Scheduler):
            name = "rogue"

            def choose(self, candidates, board, activation_round):
                return 999

        with pytest.raises(SchedulerError):
            run(path_graph(2), LocalOnlyProtocol(), SIMASYNC, Rogue())


class TestExhaustiveEnumeration:
    def test_simultaneous_schedule_count_is_factorial(self):
        for n in (1, 2, 3, 4):
            g = LabeledGraph(n)
            assert count_executions(g, LocalOnlyProtocol(), SIMASYNC) == math.factorial(n)

    def test_forced_order_single_schedule(self):
        g = path_graph(4)
        assert count_executions(g, PickyActivation(), ASYNC) == 1

    def test_each_schedule_distinct(self):
        g = path_graph(3)
        orders = [r.write_order for r in all_executions(g, LocalOnlyProtocol(), SIMSYNC)]
        assert len(orders) == len(set(orders)) == 6

    def test_limit(self):
        g = LabeledGraph(4)
        runs = list(all_executions(g, LocalOnlyProtocol(), SIMASYNC, limit=5))
        assert len(runs) == 5

    def test_matches_fixed_order_run(self):
        g = path_graph(3)
        target = run(g, EchoProtocol(), SIMSYNC, FixedOrderScheduler([2, 3, 1]))
        found = [
            r for r in all_executions(g, EchoProtocol(), SIMSYNC)
            if r.write_order == (2, 3, 1)
        ]
        assert len(found) == 1
        assert found[0].output == target.output

    def test_simasync_multiset_schedule_invariance(self):
        """The defining SIMASYNC property: the message *multiset* cannot
        depend on the adversary."""
        g = random_graph(4, 0.5, seed=3)
        multisets = {
            tuple(sorted(r.board.view(), key=repr))
            for r in all_executions(g, LocalOnlyProtocol(), SIMASYNC)
        }
        assert len(multisets) == 1


class TestIncrementalMatchesReplay:
    """The incremental checkpoint/undo enumerator must be observationally
    identical to replay-from-scratch — same runs, same order, same
    accounting — for every model and for deadlocking executions too."""

    @staticmethod
    def _fingerprint(r):
        return (
            r.success,
            r.output,
            r.write_order,
            tuple(sorted(r.activation_round.items())),
            r.max_message_bits,
            r.total_bits,
            tuple((e.author, e.payload, e.bits, e.round_written) for e in r.board.entries),
        )

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    @pytest.mark.parametrize("proto_cls", [EchoProtocol, LocalOnlyProtocol, PickyActivation])
    def test_equivalence_across_models(self, model, proto_cls):
        from repro.core.simulator import _all_executions_replay

        g = path_graph(4)
        proto = proto_cls()
        fast = [self._fingerprint(r) for r in all_executions(g, proto, model)]
        slow = [
            self._fingerprint(r)
            for r in _all_executions_replay(g, proto, model, None)
        ]
        assert fast == slow and len(fast) > 0

    def test_deadlock_equivalence(self):
        from repro.core.simulator import _all_executions_replay

        g = path_graph(3)
        fast = [self._fingerprint(r) for r in all_executions(g, NeverActivate(), ASYNC)]
        slow = [
            self._fingerprint(r)
            for r in _all_executions_replay(g, NeverActivate(), ASYNC, None)
        ]
        assert fast == slow
        assert fast and not fast[0][0]  # the lone execution deadlocks

    @pytest.mark.parametrize("make,model", [
        pytest.param(lambda: FreezeAtActivation(FirstWriterEcho()), SYNC,
                     id="freeze-SYNC"),
        pytest.param(lambda: SequentialLift(EchoProtocol()), ASYNC,
                     id="sequential-ASYNC"),
        pytest.param(lambda: SequentialLift(EchoProtocol()), SYNC,
                     id="sequential-SYNC"),
    ])
    def test_lifted_adapters_match_replay(self, make, model):
        """The Lemma 4 adapters are pure, so their states rewind by depth
        like any protocol's; undo must not leak one schedule's frozen
        messages into the next."""
        from repro.core.simulator import _all_executions_replay

        from repro.core.execution import replay_schedule

        g = path_graph(3)
        runs = list(all_executions(g, make(), model))
        fast = [self._fingerprint(r) for r in runs]
        slow = [
            self._fingerprint(r)
            for r in _all_executions_replay(g, make(), model, None)
        ]
        assert fast == slow and len(fast) > 0
        assert all(r[0] for r in fast)
        # one fresh adapter per schedule: nothing to carry over
        assert fast == [
            self._fingerprint(replay_schedule(g, make(), model, r.schedule))
            for r in runs
        ]

    def test_yielded_boards_are_independent_snapshots(self):
        g = path_graph(3)
        runs = list(all_executions(g, EchoProtocol(), SIMSYNC))
        orders = {tuple(e.author for e in r.board.entries) for r in runs}
        assert orders == {r.write_order for r in runs}
        assert len(orders) == 6  # backtracking did not mutate earlier results

    def test_bit_budget_enforced_incrementally(self):
        g = path_graph(3)
        with pytest.raises(MessageTooLarge):
            list(all_executions(g, EchoProtocol(), SIMSYNC, bit_budget=1))
