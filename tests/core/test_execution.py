"""Tests for the stepwise execution core (ExecutionState)."""

import pytest

from repro.core.errors import MessageTooLarge, SchedulerError
from repro.core.execution import ExecutionState, replay_schedule
from repro.core.models import ALL_MODELS, ASYNC, SIMASYNC, SIMSYNC, SYNC
from repro.core.protocol import NodeView, Protocol
from repro.core.schedulers import FixedOrderScheduler
from repro.core.simulator import all_executions, run
from repro.graphs.generators import path_graph, random_graph


class EchoProtocol(Protocol):
    """Writes (id, #messages already on the board): board-sensitive."""

    name = "echo"

    def message(self, view: NodeView):
        return (view.node, len(view.board))

    def output(self, board, n):
        return tuple(board)


class PickyActivation(Protocol):
    """Node v activates once v-1 nodes have written (forces id order)."""

    name = "picky"

    def wants_to_activate(self, view: NodeView) -> bool:
        return len(view.board) >= view.node - 1

    def message(self, view: NodeView):
        return (view.node,)

    def output(self, board, n):
        return tuple(p[0] for p in board)


class NeverActivate(Protocol):
    name = "never"

    def wants_to_activate(self, view: NodeView) -> bool:
        return False

    def message(self, view: NodeView):
        return 0

    def output(self, board, n):
        return None


def fingerprint(state: ExecutionState):
    return (
        state.schedule,
        tuple((e.author, e.payload, e.bits, e.round_written)
              for e in state.board.entries),
        state.candidates,
        state.write_candidates,
        dict(state.activation_round),
        set(state.written),
        set(state.active),
        state.config_key(),
    )


#: Fault budgets the checkpoint tests cover: none, each kind alone, all.
FAULT_BUDGETS = [None, "crash:1", "loss:1", "dup:1", "crash:1,loss:1,dup:1"]


class TestStepMachine:
    def test_initial_candidates_simultaneous(self):
        g = path_graph(4)
        state = ExecutionState.initial(g, EchoProtocol(), SIMASYNC)
        assert state.candidates == (1, 2, 3, 4)
        assert state.depth == 0 and not state.terminal

    def test_advance_appends_write(self):
        g = path_graph(3)
        state = ExecutionState.initial(g, EchoProtocol(), SIMSYNC)
        state.advance(2)
        assert state.schedule == (2,)
        assert state.board.entries[0].author == 2
        assert state.board.entries[0].round_written == 1
        assert state.candidates == (1, 3)

    def test_advance_rejects_non_candidate(self):
        g = path_graph(3)
        state = ExecutionState.initial(g, PickyActivation(), ASYNC)
        assert state.candidates == (1,)
        with pytest.raises(SchedulerError):
            state.advance(3)

    def test_result_requires_terminal(self):
        state = ExecutionState.initial(path_graph(3), EchoProtocol(), SIMASYNC)
        with pytest.raises(ValueError):
            state.result()

    def test_deadlock_is_terminal(self):
        state = ExecutionState.initial(path_graph(3), NeverActivate(), ASYNC)
        assert state.terminal and state.deadlocked and not state.done
        result = state.result()
        assert result.corrupted and result.output is None

    def test_budget_enforced_on_advance(self):
        state = ExecutionState.initial(
            path_graph(3), EchoProtocol(), SIMSYNC, bit_budget=1
        )
        with pytest.raises(MessageTooLarge):
            state.advance(1)

    @pytest.mark.parametrize("adapted", [False, True],
                             ids=["plain", "sync-adapter"])
    @pytest.mark.parametrize("faults", FAULT_BUDGETS, ids=str)
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_snapshot_restore_round_trip(self, model, faults, adapted):
        """Nested restores land on the configuration a fresh replay of
        the same prefix builds — candidate sets (which an undo puts back
        from the journal) and config key included.

        Checkpoints are taken at every depth of the last-candidate path
        (fault events first, where a budget allows them).  From the
        deepest up, each is restored, checked, and left by a different
        choice down to a leaf before the next, shallower restore.
        """
        from repro.hierarchy.adapters import FreezeAtActivation

        g = random_graph(5, 0.5, seed=2)
        proto = (FreezeAtActivation(EchoProtocol()) if adapted
                 else EchoProtocol())

        def replayed(schedule):
            fresh = ExecutionState.initial(g, proto, model, faults=faults)
            for choice in schedule:
                fresh.advance(choice)
            return fingerprint(fresh)

        state = ExecutionState.initial(g, proto, model, faults=faults)
        path = []
        while not state.terminal:
            path.append((state.depth, fingerprint(state)))
            state.advance(state.candidates[-1])
        assert len(path) >= 3
        for checkpoint, before in reversed(path):
            # Read at the leaf too, so its (empty) candidates are cached
            # when the restore below undoes past it.
            assert fingerprint(state) == replayed(state.schedule)
            state.restore(checkpoint)
            assert fingerprint(state) == before == replayed(state.schedule)
            while not state.terminal:
                state.advance(state.candidates[0])

    def test_restore_rejects_descendant_checkpoint(self):
        state = ExecutionState.initial(path_graph(3), EchoProtocol(), SIMSYNC)
        state.advance(1)
        deeper = state.depth
        state.restore(state.depth)  # no-op restore is fine
        state.restore(0)  # rewind to the root
        with pytest.raises(ValueError):
            state.restore(deeper)  # cannot restore forward

    def test_copy_is_independent(self):
        g = path_graph(4)
        state = ExecutionState.initial(g, EchoProtocol(), SIMSYNC)
        state.advance(2)
        clone = state.copy()
        state.advance(3)
        assert clone.schedule == (2,) and state.schedule == (2, 3)
        clone.advance(1)
        assert state.schedule == (2, 3)
        assert clone.board.entries[1].author == 1

    def test_stateful_protocol_restores_by_replay(self):
        from repro.hierarchy.adapters import FreezeAtActivation

        g = path_graph(3)
        lifted = FreezeAtActivation(EchoProtocol())
        state = ExecutionState.initial(g, lifted, SYNC)
        state.advance(1)
        checkpoint = state.depth
        state.advance(2)
        state.restore(checkpoint)
        assert state.schedule == (1,)
        # The restored state completes to the same run a fresh walk gives.
        state.advance(2)
        state.advance(3)
        direct = replay_schedule(g, FreezeAtActivation(EchoProtocol()),
                                 SYNC, (1, 2, 3))
        assert state.result().output == direct.output

    def test_stepwise_run_matches_scheduler_run(self):
        g = random_graph(5, 0.4, seed=7)
        order = [3, 5, 1, 4, 2]
        via_run = run(g, EchoProtocol(), SIMSYNC, FixedOrderScheduler(order))
        via_replay = replay_schedule(g, EchoProtocol(), SIMSYNC, order)
        assert via_replay.write_order == via_run.write_order
        assert via_replay.output == via_run.output
        assert via_replay.total_bits == via_run.total_bits


class TestReplaySchedule:
    def test_partial_schedule_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            replay_schedule(g, EchoProtocol(), SIMSYNC, (1,))

    def test_invalid_choice_rejected(self):
        g = path_graph(3)
        with pytest.raises(SchedulerError):
            replay_schedule(g, PickyActivation(), ASYNC, (2, 1, 3))

    def test_matches_exhaustive_entry(self):
        g = path_graph(3)
        for result in all_executions(g, EchoProtocol(), SIMSYNC):
            replayed = replay_schedule(g, EchoProtocol(), SIMSYNC,
                                       result.write_order)
            assert replayed.output == result.output
            assert replayed.max_message_bits == result.max_message_bits
