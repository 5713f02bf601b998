"""Fault events in the execution engine: semantics, journaling, undo.

The engine promise under faults is the same as without: one live state
steered by snapshot/restore visits the joint fault × schedule tree edge
by edge, and every observable (board, budgets, config keys, results) is
bit-identical to replaying each schedule from scratch.
"""

import pytest

from repro.core import ASYNC, SIMASYNC
from repro.core.execution import ExecutionState, replay_schedule
from repro.core.simulator import (
    _all_executions_replay,
    all_executions,
    count_executions,
)
from repro.faults.spec import FaultSpec, crash_event, dup_event, loss_event
from repro.graphs import generators as gen
from repro.graphs.families import family
from repro.protocols.bfs import EobBfsProtocol
from repro.protocols.build import DegenerateBuildProtocol


def build_state(faults=None, n=4, model=SIMASYNC):
    g = gen.cycle_graph(n)
    return ExecutionState.initial(g, DegenerateBuildProtocol(2), model,
                                  None, faults=faults)


class TestCandidates:
    def test_fault_free_candidates_are_pure_writes(self):
        state = build_state()
        assert state.candidates == state.write_candidates
        assert all(c > 0 for c in state.candidates)

    def test_writes_come_first_ascending(self):
        # The complete_ascending fallback depends on candidates[0] being
        # the smallest reliable write — faults must never displace it.
        state = build_state(faults="crash:1,loss:1,dup:1")
        writes = state.write_candidates
        assert state.candidates[:len(writes)] == writes
        assert writes == tuple(sorted(writes))
        assert all(c < 0 for c in state.candidates[len(writes):])

    def test_fault_events_cover_every_kind(self):
        state = build_state(faults="crash:1,loss:1,dup:1")
        n = state.n
        kinds = {c for c in state.candidates if c < 0}
        for v in state.write_candidates:
            assert loss_event(v, n) in kinds
            assert dup_event(v, n) in kinds
        # every non-written, non-crashed node is crashable
        for v in range(1, n + 1):
            assert crash_event(v, n) in kinds

    def test_exhausted_budget_removes_fault_events(self):
        state = build_state(faults="crash:1")
        state.advance(crash_event(1, state.n))
        assert all(c > 0 for c in state.candidates)

    def test_no_fault_events_without_write_candidates(self):
        # Fault events cannot rescue (or manufacture) a deadlock.
        g = gen.path_graph(3)
        state = ExecutionState.initial(g, EobBfsProtocol(), ASYNC, None,
                                       faults="crash:2")
        while state.write_candidates:
            state.advance(state.write_candidates[0])
        assert state.terminal
        assert state.candidates == ()


class TestCrash:
    def test_crash_stop_semantics(self):
        state = build_state(faults="crash:2")
        n = state.n
        entries_before = len(state.board.entries)
        state.advance(crash_event(2, n))
        assert 2 in state.crashed
        assert 2 not in state.active
        assert len(state.board.entries) == entries_before
        assert state.crashes_left == 1
        # a crashed node never writes nor re-crashes
        assert 2 not in state.write_candidates
        assert crash_event(2, n) not in state.candidates

    def test_async_frozen_message_discarded_and_restored(self):
        g = family("even-odd-bipartite").sample_in_class(4, 0)
        state = ExecutionState.initial(g, EobBfsProtocol(), ASYNC, None,
                                       faults="crash:1")
        victim = state.write_candidates[0]
        checkpoint = state.depth
        state.advance(crash_event(victim, state.n))
        assert victim in state.crashed
        state.restore(checkpoint)
        assert victim not in state.crashed
        assert state.crashes_left == 1
        # the restored state completes exactly like an untouched one
        reference = ExecutionState.initial(g, EobBfsProtocol(), ASYNC, None,
                                           faults="crash:1")
        while state.write_candidates:
            choice = state.write_candidates[0]
            state.advance(choice)
            reference.advance(choice)
        assert state.result().output == reference.result().output

    def test_done_counts_crashed_nodes(self):
        state = build_state(faults="crash:1")
        state.advance(crash_event(4, state.n))
        for v in (1, 2, 3):
            state.advance(v)
        assert state.done
        assert state.terminal
        result = state.result()
        assert result.success
        assert result.crashed == frozenset({4})
        assert result.write_order == (1, 2, 3)
        assert result.schedule == (crash_event(4, 4), 1, 2, 3)


class TestLoss:
    def test_lost_write_terminates_writer_without_entry(self):
        state = build_state(faults="loss:1")
        n = state.n
        entries_before = len(state.board.entries)
        state.advance(loss_event(1, n))
        assert 1 in state.written
        assert 1 not in state.active
        assert len(state.board.entries) == entries_before
        assert state.losses_left == 0

    def test_lost_write_still_budget_checked(self):
        from repro.core.errors import MessageTooLarge

        g = gen.cycle_graph(4)
        state = ExecutionState.initial(g, DegenerateBuildProtocol(2),
                                       SIMASYNC, 1, faults="loss:1")
        with pytest.raises(MessageTooLarge):
            state.advance(loss_event(1, state.n))


class TestDup:
    def test_duplicated_write_doubles_total_not_max(self):
        state = build_state(faults="dup:1")
        n = state.n
        state.advance(dup_event(1, n))
        entries = state.board.entries
        assert len(entries) == 2
        assert entries[0].payload == entries[1].payload
        assert entries[0].author == entries[1].author == 1
        assert state.board.total_bits() == 2 * state.board.max_bits()
        assert state.last_event_bits == entries[0].bits
        assert state.last_event_total == 2 * entries[0].bits

    def test_dup_undo_pops_both_entries(self):
        state = build_state(faults="dup:1")
        checkpoint = state.depth
        state.advance(dup_event(1, state.n))
        state.restore(checkpoint)
        assert len(state.board.entries) == 0
        assert state.dups_left == 1
        assert 1 not in state.written


class TestConfigKeys:
    def test_fault_free_keys_unchanged(self):
        with_kwarg = build_state(faults=None)
        explicit_zero = build_state(faults=FaultSpec())
        assert with_kwarg.config_key() == explicit_zero.config_key()

    def test_faulted_key_adds_fault_component(self):
        reliable = build_state(faults=None)
        faulted = build_state(faults="crash:1")
        assert len(faulted.config_key()) == len(reliable.config_key()) + 2

    def test_budget_and_crash_set_distinguish_configs(self):
        a = build_state(faults="crash:1")
        b = build_state(faults="crash:1")
        assert a.config_key() == b.config_key()
        a.advance(crash_event(1, a.n))
        b.advance(1)
        assert a.config_key() != b.config_key()


class TestJointSpace:
    def test_counts_grow_with_budgets(self):
        g = gen.cycle_graph(4)
        proto = DegenerateBuildProtocol(2)
        assert count_executions(g, proto, SIMASYNC) == 24
        assert count_executions(g, proto, SIMASYNC, faults="crash:1") == 120
        assert count_executions(
            g, proto, SIMASYNC, faults="crash:1,loss:1") == 504

    @pytest.mark.parametrize("faults", ["crash:1", "loss:1", "dup:1",
                                        "crash:1,dup:1"])
    def test_journal_undo_matches_replay_from_scratch(self, faults):
        g = gen.cycle_graph(4)
        proto = DegenerateBuildProtocol(2)
        fast = list(all_executions(g, proto, SIMASYNC, faults=faults))
        slow = list(_all_executions_replay(g, proto, SIMASYNC, None,
                                           faults=faults))
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            assert a.schedule == b.schedule
            assert a.success == b.success
            assert a.crashed == b.crashed
            assert a.max_message_bits == b.max_message_bits
            assert a.total_bits == b.total_bits
            assert a.output_error == b.output_error

    def test_fault_free_results_carry_schedule_equal_to_write_order(self):
        g = gen.cycle_graph(4)
        for result in all_executions(g, DegenerateBuildProtocol(2), SIMASYNC):
            assert result.schedule == result.write_order
            assert result.crashed == frozenset()
            assert result.output_error is None


class TestReplay:
    def test_faulted_schedules_replay_bit_identically(self):
        g = family("even-odd-bipartite").sample_in_class(4, 0)
        proto = EobBfsProtocol()
        for result in all_executions(g, proto, ASYNC, faults="crash:1",
                                     limit=50):
            again = replay_schedule(g, proto, ASYNC, result.schedule,
                                    faults="crash:1")
            assert again.schedule == result.schedule
            assert again.success == result.success
            assert again.crashed == result.crashed
            assert again.max_message_bits == result.max_message_bits
            assert again.total_bits == result.total_bits
            assert [e.payload for e in again.board.entries] == [
                e.payload for e in result.board.entries
            ]
