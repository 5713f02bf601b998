"""Admissible-bound pruning: suffix bounds, exactness, partial frontiers.

The bound lattice only earns its keep if it is *invisible*: a bounded
branch-and-bound sweep must return the field-identical witness of the
boundless (and exhaustive) sweep, whatever it skipped.  These tests pin

* the admissibility of :meth:`ExecutionState.suffix_bound` (it
  component-wise covers every completion reachable from the state),
* bounded-sweep exactness against exhaustive enumeration across the
  (table on/off) x (faults on/off) matrix at n <= 6,
* the partial-frontier table semantics that keep one pruned child from
  poisoning the shared table for every later consumer.
"""

from __future__ import annotations

import pytest

from repro.adversaries import (
    BranchAndBoundAdversary,
    SearchContext,
    TranspositionTable,
)
from repro.adversaries.transposition import (
    Completion,
    TableEntry,
    join_bounds,
    merge_bounds,
)
from repro.core import ASYNC, SIMASYNC
from repro.core.execution import ExecutionState
from repro.core.simulator import all_executions
from repro.faults.spec import resolve_faults
from repro.graphs import generators as gen
from repro.protocols.bfs import EobBfsProtocol
from repro.protocols.build import DegenerateBuildProtocol

CELLS = [
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
]


def exhaustive_worst(graph, proto, model, faults):
    """The exhaustive authority: rank-max with first-on-tie."""
    best = None
    for r in all_executions(graph, proto, model, faults=faults):
        rank = (bool(r.deadlocked_nodes), r.max_message_bits, r.total_bits)
        if best is None or rank > best[0]:
            best = (rank, r.schedule)
    return best


class TestSuffixBoundAdmissible:
    @pytest.mark.parametrize("graph,proto,model,faults", CELLS[:3])
    def test_covers_every_completion(self, graph, proto, model, faults):
        """Walk every prefix of a bounded-depth DFS; at each state the
        bound must component-wise cover every terminal completion."""
        spec = resolve_faults(faults)

        def completions(state):
            if state.terminal:
                base = state.board.total_bits()
                yield (state.deadlocked, 0, 0, base)
                return
            for choice in state.candidates:
                child = state.copy()
                child.advance(choice)
                for deadlock, top, total, base in completions(child):
                    bits = child.last_event_bits
                    extra = child.last_event_total
                    yield (deadlock, max(bits, top), extra + total, base)

        def walk(state, depth):
            bound = state.suffix_bound()
            if bound is not None:
                deadlock_ok, top_ok, total_ok = bound
                for deadlock, top, total, _ in completions(state.copy()):
                    assert (not deadlock) or deadlock_ok
                    assert top <= top_ok
                    assert total <= total_ok
            if depth == 0 or state.terminal:
                return
            for choice in state.candidates[:2]:
                child = state.copy()
                child.advance(choice)
                walk(child, depth - 1)

        walk(ExecutionState.initial(graph, proto, model, faults=spec), 2)

    def test_terminal_state_is_exactly_bounded(self):
        g = gen.random_k_degenerate(4, 2, seed=0)
        state = ExecutionState.initial(g, DegenerateBuildProtocol(2),
                                       SIMASYNC)
        while not state.terminal:
            state.advance(state.candidates[0])
        assert state.suffix_bound() == (False, 0, 0)


class TestBoundedSweepExact:
    @pytest.mark.parametrize("graph,proto,model,faults", CELLS)
    @pytest.mark.parametrize("shared", [False, True],
                             ids=["table-off", "table-on"])
    def test_field_identical_to_exhaustive(self, graph, proto, model,
                                           faults, shared):
        rank, schedule = exhaustive_worst(graph, proto, model, faults)
        ctx = SearchContext(table=TranspositionTable()) if shared else None
        witness = BranchAndBoundAdversary(bounds=True).search(
            graph, proto, model, context=ctx, faults=faults)
        assert (witness.deadlock, witness.bits, witness.total_bits) == rank
        assert witness.schedule == schedule

    def test_pruning_fires_and_stays_invisible(self):
        """On the faulted n=7 build cell pruning collapses the sweep by
        orders of magnitude; the witness fields must not move."""
        g7 = gen.random_k_degenerate(7, 2, seed=0)
        proto = DegenerateBuildProtocol(2)

        def run(bounds):
            ctx = SearchContext(table=TranspositionTable())
            adv = BranchAndBoundAdversary(bounds=bounds)
            return adv.search(g7, proto, SIMASYNC, context=ctx,
                              faults="crash:1"), ctx

        boundless, _ = run(False)
        bounded, ctx = run(True)
        assert ctx.stats.bound_prunes > 0
        assert bounded.explored < boundless.explored
        assert (bounded.schedule, bounded.bits, bounded.total_bits,
                bounded.deadlock) == (boundless.schedule, boundless.bits,
                                      boundless.total_bits,
                                      boundless.deadlock)

    def test_table_free_sweep_never_prunes(self):
        """The sharding-compatible authority: without a table, bounds
        change nothing — explored counts stay the boundless ones."""
        g = gen.random_k_degenerate(5, 2, seed=0)
        proto = DegenerateBuildProtocol(2)
        on = BranchAndBoundAdversary(bounds=True).search(
            g, proto, SIMASYNC, faults="crash:1")
        off = BranchAndBoundAdversary(bounds=False).search(
            g, proto, SIMASYNC, faults="crash:1")
        assert on.explored == off.explored
        assert on.schedule == off.schedule


class TestBoundLattice:
    def test_merge_is_componentwise_min(self):
        assert merge_bounds((True, 5, 9), (False, 7, 3)) == (False, 5, 3)
        assert merge_bounds(None, (True, 1, 2)) == (True, 1, 2)
        assert merge_bounds((True, 1, 2), None) == (True, 1, 2)
        assert merge_bounds(None, None) is None

    def test_join_is_componentwise_max(self):
        assert join_bounds((True, 5, 9), (False, 7, 3)) == (True, 7, 9)
        assert join_bounds((False, 0, 0), (False, 2, 4)) == (False, 2, 4)
        assert join_bounds(None, (True, 1, 2)) is None
        assert join_bounds((True, 1, 2), None) is None

    def test_record_bound_skips_exact_entries(self):
        table = TranspositionTable()
        key = ("k",)
        table.record_exact(key, (Completion(False, 3, 3, (1,)),))
        table.record_bound(key, (True, 9, 9))
        assert table.get(key).bound is None

    def test_record_bound_infers_deadlock_free(self):
        table = TranspositionTable()
        key = ("k",)
        table.record_bound(key, (False, 4, 8))
        entry = table.get(key)
        assert entry.deadlock_free
        assert entry.bound == (False, 4, 8)

    def test_record_partial_first_frontier_wins(self):
        table = TranspositionTable()
        key = ("k",)
        first = (Completion(False, 3, 3, (1,)),)
        table.record_partial(key, first, (False, 2, 2))
        table.record_partial(key, (Completion(False, 9, 9, (2,)),),
                             (False, 1, 1))
        entry = table.get(key)
        assert entry.completions == first
        assert entry.bound == (False, 2, 2)
        assert not entry.exact

    def test_record_partial_keeps_proven_deadlock_free(self):
        table = TranspositionTable()
        key = ("k",)
        table.record_bound(key, (False, 4, 8))
        table.record_partial(key, (Completion(True, 3, 3, (1,)),),
                             (True, 2, 2))
        assert table.get(key).deadlock_free

    def test_exact_upgrade_clears_partial_bound(self):
        table = TranspositionTable()
        key = ("k",)
        table.record_partial(key, (Completion(False, 3, 3, (1,)),),
                             (False, 2, 2))
        table.record_exact(key, (Completion(False, 5, 5, (1, 2)),))
        entry = table.get(key)
        assert entry.exact
        assert entry.bound is None

    def test_effective_bound_folds_deadlock_free(self):
        entry = TableEntry(bound=(True, 4, 8), deadlock_free=True)
        assert entry.effective_bound() == (False, 4, 8)


class TestSharedTableReuse:
    def test_second_search_reuses_partial_entries(self):
        """A second bounded search over the same shared table must not
        re-expand what the first stored — witness fields unchanged,
        strictly less new exploration."""
        g = gen.random_k_degenerate(6, 2, seed=0)
        proto = DegenerateBuildProtocol(2)
        ctx = SearchContext(table=TranspositionTable())
        first = BranchAndBoundAdversary(bounds=True).search(
            g, proto, SIMASYNC, context=ctx, faults="crash:1")
        spent = ctx.stats.steps
        second = BranchAndBoundAdversary(bounds=True).search(
            g, proto, SIMASYNC, context=ctx, faults="crash:1")
        assert (second.schedule, second.bits, second.total_bits) == (
            first.schedule, first.bits, first.total_bits)
        assert ctx.stats.steps - spent < spent
