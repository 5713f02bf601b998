"""Search kernel: config keys, the shared transposition table, scoring.

Acceptance contract of the unified-search-kernel PR:

* every strategy run through the shared kernel returns witnesses that
  replay to their recorded accounting, table on and off;
* on every exhaustively-checkable fixture, transposition-enabled
  branch-and-bound (and a wide-enough beam) matches the exhaustive bits
  maximum exactly, with **field-identical** witnesses table on vs. off;
* the deadlock seeker finds a deadlock iff one exists, table on and
  off, with identical deadlock schedules (and identical badness ranks
  for the fallback completion witnesses);
* `config_key()` covers every payload the codec can encode — dict/list
  payloads memoise instead of silently disabling the memo.
"""

import pytest

from repro.adversaries import (
    BeamSearchAdversary,
    BitsGreedyScore,
    BranchAndBoundAdversary,
    DeadlockAdversary,
    DeadlockFirstScore,
    DecodeFailureScore,
    GreedyBitsAdversary,
    OutOfBudget,
    SearchContext,
    TranspositionTable,
    default_search_portfolio,
    resolve_score,
    witness_rank,
)
from repro.adversaries.transposition import (
    Completion,
    TableEntry,
    best_composed,
    dominance_frontier,
)
from repro.core.execution import ExecutionState, replay_schedule
from repro.core.models import ASYNC, SIMASYNC, SIMSYNC, SYNC
from repro.core.protocol import NodeView, Protocol
from repro.core.simulator import all_executions
from repro.faults.spec import resolve_faults
from repro.graphs import generators as gen
from repro.graphs.labeled_graph import LabeledGraph
from repro.protocols.bfs import BipartiteBfsAsyncProtocol, EobBfsProtocol
from repro.protocols.build import DegenerateBuildProtocol

from test_search import FIXTURES, EchoProtocol, ground_truth


class DictPayloadProtocol(Protocol):
    """Writes constant dict/list payloads — unhashable, codec-encodable.

    Under the pre-kernel deadlock memo these payloads silently disabled
    memoisation (``except TypeError``); the canonical ``config_key``
    must digest them like any other payload.  Constant payloads make
    board views permutation-invariant, so memoisation gets real hits.
    """

    name = "dict-constant"

    def message(self, view: NodeView):
        return {"tag": ["X"]}

    def output(self, board, n):
        return len(board)


class DictWaitForNeighbor(Protocol):
    """Dict/list payloads plus starvable activation: node 1 leads,
    everyone else activates only once a written neighbour appears — so
    a component without node 1 deadlocks under every schedule."""

    name = "dict-wait"

    def wants_to_activate(self, view: NodeView) -> bool:
        if view.node == 1:
            return True
        seen = {payload["id"] for payload in view.board}
        return bool(seen.intersection(view.neighbors))

    def message(self, view: NodeView):
        return {"id": view.node, "hops": [len(view.board)]}

    def output(self, board, n):
        return len(board)


def _strategy_params():
    return [
        pytest.param(lambda: BranchAndBoundAdversary(),
                     id="branch-and-bound"),
        pytest.param(lambda: BeamSearchAdversary(width=720, restarts=0),
                     id="beam-exhaustive-width"),
        pytest.param(lambda: GreedyBitsAdversary(restarts=2), id="greedy"),
        pytest.param(lambda: DeadlockAdversary(), id="deadlock"),
    ]


def _shared_context():
    return SearchContext(table=TranspositionTable())


class TestConfigKey:
    def test_round_trips_through_snapshot_restore(self):
        g = gen.path_graph(4)
        state = ExecutionState.initial(g, EchoProtocol(), SIMSYNC)
        initial_key = state.config_key()
        checkpoint = state.snapshot()
        state.advance(state.candidates[0])
        assert state.config_key() != initial_key
        state.restore(checkpoint)
        assert state.config_key() == initial_key

    def test_copy_preserves_key(self):
        g = gen.path_graph(4)
        state = ExecutionState.initial(g, EchoProtocol(), SIMSYNC)
        state.advance(state.candidates[0])
        assert state.copy().config_key() == state.config_key()

    def test_dict_payloads_are_hashable_keys(self):
        g = gen.path_graph(3)
        state = ExecutionState.initial(g, DictPayloadProtocol(), ASYNC)
        state.advance(state.candidates[0])
        key = state.config_key()
        hash(key)  # the whole point: never a TypeError
        assert key == state.copy().config_key()

    def test_same_configuration_same_key_despite_author_order(self):
        # Two nodes writing identical payloads in either order reach the
        # same configuration; the key must agree (the board digest is
        # payload-sequence based, like the future dynamics).
        class Constant(Protocol):
            name = "constant"

            def message(self, view):
                return "X"

            def output(self, board, n):
                return None

        g = gen.path_graph(3)
        a = ExecutionState.initial(g, Constant(), SIMSYNC)
        a.advance(1)
        a.advance(2)
        b = ExecutionState.initial(g, Constant(), SIMSYNC)
        b.advance(2)
        b.advance(1)
        assert a.config_key() == b.config_key()

    def test_engine_owns_mutable_payloads(self):
        # A protocol reusing an internal accumulator must not retro-
        # actively change already-written board entries (bit accounting
        # and config digests are cached at write time).
        class Mutator(Protocol):
            name = "mutator"

            def __init__(self):
                self.acc = []

            def fresh(self):
                return Mutator()

            def message(self, view):
                self.acc.append(view.node)
                return {"acc": self.acc}

            def output(self, board, n):
                return len(board)

        g = gen.path_graph(3)
        state = ExecutionState.initial(g, Mutator(), SYNC)
        while not state.terminal:
            state.advance(state.candidates[0])
        lengths = [len(e.payload["acc"]) for e in state.board.entries]
        assert lengths == [1, 2, 3]  # each entry kept its own snapshot
        for entry in state.board.entries:
            from repro.encoding.bits import payload_bits

            assert entry.bits == payload_bits(entry.payload)

    def test_key_distinguishes_distinct_boards(self):
        g = gen.path_graph(3)
        a = ExecutionState.initial(g, EchoProtocol(), SIMSYNC)
        a.advance(1)
        b = ExecutionState.initial(g, EchoProtocol(), SIMSYNC)
        b.advance(2)
        assert a.config_key() != b.config_key()


class TestDominanceFrontier:
    def test_dominated_later_completions_drop(self):
        big = Completion(False, 10, 10, (1,))
        small = Completion(False, 5, 5, (2,))
        assert dominance_frontier([big, small]) == (big,)

    def test_earlier_entries_survive_later_dominators(self):
        # A later dominator must NOT evict an earlier entry: on ties the
        # earlier (DFS-first) witness is the one a plain sweep returns.
        small = Completion(False, 5, 5, (1,))
        big = Completion(False, 10, 10, (2,))
        assert dominance_frontier([small, big]) == (small, big)

    def test_incomparable_completions_coexist(self):
        tall = Completion(False, 10, 5, (1,))
        wide = Completion(False, 5, 20, (2,))
        assert dominance_frontier([tall, wide]) == (tall, wide)

    def test_deadlock_dominates_any_bits(self):
        dead = Completion(True, 0, 0, (1,))
        bits = Completion(False, 99, 99, (2,))
        assert dominance_frontier([dead, bits]) == (dead,)
        assert dominance_frontier([bits, dead]) == (bits, dead)

    def test_best_composed_is_context_sensitive(self):
        tall = Completion(False, 10, 5, (2, 3))
        wide = Completion(False, 5, 20, (3, 2))
        entry = TableEntry(completions=(tall, wide), deadlock_free=True)
        g = gen.path_graph(3)
        state = ExecutionState.initial(g, EchoProtocol(), SIMSYNC)
        # Empty prefix: the 10-bit completion wins on max bits.
        assert best_composed("t", state, entry, 0).bits == 10
        # A prefix that already wrote >= 10 bits: totals decide.
        witness = best_composed("t", state, entry, 0)
        assert witness.schedule == (2, 3)


class TestTableSemantics:
    def test_scope_guard_rejects_cross_cell_reuse(self):
        table = TranspositionTable()
        g = gen.path_graph(4)
        table.bind(g, EchoProtocol(), SIMSYNC, None)
        table.bind(g, EchoProtocol(), SIMSYNC, None)  # same cell: fine
        with pytest.raises(ValueError):
            table.bind(g, EchoProtocol(), ASYNC, None)
        with pytest.raises(ValueError):
            table.bind(g, DegenerateBuildProtocol(2), SIMSYNC, None)
        with pytest.raises(ValueError):
            table.bind(g, EchoProtocol(), SIMSYNC, 100)

    def test_scope_guard_sees_primitive_protocol_params(self):
        table = TranspositionTable()
        g = gen.path_graph(4)
        table.bind(g, DegenerateBuildProtocol(2), SIMSYNC, None)
        with pytest.raises(ValueError):
            table.bind(g, DegenerateBuildProtocol(3), SIMSYNC, None)

    def test_stateful_states_are_never_memoised(self):
        from repro.hierarchy.adapters import FreezeAtActivation

        g = gen.path_graph(4)
        state = ExecutionState.initial(
            g, FreezeAtActivation(EchoProtocol()), SYNC)
        assert TranspositionTable.key_for(state) is None

    def test_exact_recording_is_idempotent(self):
        table = TranspositionTable()
        first = (Completion(False, 7, 7, (1,)),)
        table.record_exact(("k",), first)
        table.record_exact(("k",), (Completion(False, 9, 9, (2,)),))
        assert table.get(("k",)).completions == first

    def test_exactness_is_derived_from_completions(self):
        """An entry is exact exactly when it holds a frontier; the flag
        cannot be stored or set on its own."""
        table = TranspositionTable()
        table.record_deadlock_free(("free",))
        table.record_exact(("swept",), (Completion(True, 0, 0, ()),))
        free, swept = table.get(("free",)), table.get(("swept",))
        assert not free.exact and free.deadlock_free
        assert swept.exact and not swept.deadlock_free
        with pytest.raises(AttributeError):
            free.exact = True
        with pytest.raises(TypeError):
            TableEntry(exact=True)

    @pytest.mark.parametrize("faults", ["crash:1", "loss:1"])
    def test_stored_completions_replay_to_their_accounting(self, faults):
        """Every completion branch-and-bound stores must describe its
        own suffix: replaying it from the configuration adds exactly its
        ``max_bits`` and ``total_bits``.  Messages shrink with the node
        id, so a frozen tail entered after a crash or loss event (which
        advances the schedule but writes no entry) starts with its
        largest message."""

        class Descending(Protocol):
            name = "descending"

            def message(self, view: NodeView):
                return (0,) * (10 - view.node)

            def output(self, board, n):
                return tuple(board)

        g = gen.path_graph(4)
        table = TranspositionTable()
        BranchAndBoundAdversary().search(
            g, Descending(), ASYNC, context=SearchContext(table=table),
            faults=faults)
        checked = 0

        def walk(state):
            nonlocal checked
            entry = table.get(table.key_for(state))
            for completion in entry.completions if entry else ():
                checkpoint = state.snapshot()
                start = len(state.board)
                for choice in completion.suffix:
                    state.advance(choice)
                bits = [e.bits for e in state.board.entries[start:]]
                assert (max(bits, default=0), sum(bits)) == (
                    completion.max_bits, completion.total_bits)
                checked += 1
                state.restore(checkpoint)
            for choice in () if state.terminal else state.candidates:
                checkpoint = state.snapshot()
                state.advance(choice)
                walk(state)
                state.restore(checkpoint)

        walk(ExecutionState.initial(g, Descending(), ASYNC,
                                    faults=resolve_faults(faults)))
        assert checked


class TestTableOnOffEquivalence:
    """Shared-table runs return field-identical witnesses (modulo the
    ``explored`` cost counter, which the table exists to shrink)."""

    @pytest.mark.parametrize("make_strategy", _strategy_params())
    @pytest.mark.parametrize("graph,protocol_factory,model", FIXTURES)
    def test_witnesses_field_identical(self, graph, protocol_factory, model,
                                       make_strategy):
        off = make_strategy().search(graph, protocol_factory(), model)
        on = make_strategy().search(graph, protocol_factory(), model,
                                    context=_shared_context())
        assert on.schedule == off.schedule
        assert on.bits == off.bits
        assert on.total_bits == off.total_bits
        assert on.deadlock == off.deadlock
        replayed = replay_schedule(graph, protocol_factory(), model,
                                   on.schedule)
        assert replayed.max_message_bits == on.bits
        assert replayed.corrupted == on.deadlock

    @pytest.mark.parametrize("graph,protocol_factory,model", FIXTURES)
    def test_bnb_matches_exhaustive_max_table_on(self, graph,
                                                 protocol_factory, model):
        exhaustive_bits, has_deadlock = ground_truth(
            graph, protocol_factory, model)
        witness = BranchAndBoundAdversary().search(
            graph, protocol_factory(), model, context=_shared_context())
        if witness.deadlock:
            assert has_deadlock
        else:
            assert witness.bits == exhaustive_bits

    @pytest.mark.parametrize("graph,protocol_factory,model", FIXTURES)
    def test_deadlock_iff_with_portfolio_sharing(self, graph,
                                                 protocol_factory, model):
        """Deadlock verdict survives a whole portfolio sharing one
        table (the seeker runs last, over a table branch-and-bound
        already filled)."""
        _, has_deadlock = ground_truth(graph, protocol_factory, model)
        ctx = _shared_context()
        witnesses = {}
        for strategy in default_search_portfolio():
            witnesses[strategy.name] = strategy.search(
                graph, protocol_factory(), model, context=ctx)
        assert witnesses["deadlock-dfs"].deadlock == has_deadlock
        solo = DeadlockAdversary().search(graph, protocol_factory(), model)
        shared = witnesses["deadlock-dfs"]
        if has_deadlock:
            assert shared.schedule == solo.schedule
        else:
            # Fallback completions keep the identical badness rank even
            # when pruning changed which schedule realises it.
            assert witness_rank(shared) == witness_rank(solo)
        for witness in witnesses.values():
            replayed = replay_schedule(graph, protocol_factory(), model,
                                       witness.schedule)
            assert replayed.max_message_bits == witness.bits
            assert replayed.corrupted == witness.deadlock


class TestCrossStrategySharing:
    def test_bnb_fills_table_deadlock_seeker_prunes(self):
        g = gen.random_even_odd_bipartite(6, 0.5, seed=1)
        ctx = _shared_context()
        BranchAndBoundAdversary().search(g, EobBfsProtocol(), ASYNC,
                                         context=ctx)
        assert len(ctx.table) > 0
        solo = DeadlockAdversary().search(g, EobBfsProtocol(), ASYNC)
        shared = DeadlockAdversary().search(g, EobBfsProtocol(), ASYNC,
                                            context=ctx)
        assert shared.explored < solo.explored
        assert not shared.deadlock
        assert witness_rank(shared) == witness_rank(solo)
        assert ctx.table.hits > 0

    def test_greedy_consumes_exact_completions(self):
        g = gen.path_graph(5)
        ctx = _shared_context()
        exact = BranchAndBoundAdversary().search(g, EchoProtocol(), SIMSYNC,
                                                 context=ctx)
        solo = GreedyBitsAdversary(restarts=0).search(
            g, EchoProtocol(), SIMSYNC)
        shared = GreedyBitsAdversary(restarts=0).search(
            g, EchoProtocol(), SIMSYNC, context=ctx)
        # The very first descent hits the root's exact entry: the greedy
        # answer becomes the exact optimum at (near) zero cost.
        assert shared.bits == exact.bits
        assert shared.explored < solo.explored
        replayed = replay_schedule(g, EchoProtocol(), SIMSYNC,
                                   shared.schedule)
        assert replayed.max_message_bits == shared.bits

    def test_bnb_restart_passes_reuse_the_table(self):
        g = gen.path_graph(6)
        truncated = lambda: BranchAndBoundAdversary(max_steps=200, restarts=2)
        off = truncated().search(g, EchoProtocol(), SIMSYNC)
        ctx = _shared_context()
        on = truncated().search(g, EchoProtocol(), SIMSYNC, context=ctx)
        assert ctx.table.hits > 0
        # Anytime contract: both truncated searches stay sound.
        for witness in (off, on):
            replayed = replay_schedule(g, EchoProtocol(), SIMSYNC,
                                       witness.schedule)
            assert replayed.max_message_bits == witness.bits

    def test_repeated_deadlock_searches_keep_fallback_rank(self):
        # Bare deadlock-free facts (no exact frontier) must not prune:
        # a second search over the same shared table has to reach the
        # identical fallback badness rank as a solo one.
        g = gen.random_even_odd_bipartite(6, 0.5, seed=1)
        ctx = _shared_context()
        first = DeadlockAdversary().search(g, EobBfsProtocol(), ASYNC,
                                           context=ctx)
        second = DeadlockAdversary().search(g, EobBfsProtocol(), ASYNC,
                                            context=ctx)
        solo = DeadlockAdversary().search(g, EobBfsProtocol(), ASYNC)
        assert (witness_rank(first) == witness_rank(second)
                == witness_rank(solo))

    def test_stats_accumulate_across_strategies(self):
        g = gen.path_graph(4)
        ctx = _shared_context()
        for strategy in default_search_portfolio():
            strategy.search(g, EchoProtocol(), SIMSYNC, context=ctx)
        assert ctx.stats.searches == 4
        assert ctx.stats.steps > 0
        assert ctx.table.probes > 0


class TestDictPayloadMemo:
    """The satellite fix: unhashable payloads must memoise, not skip."""

    BROKEN = LabeledGraph(5, [(1, 2), (1, 3), (2, 3), (4, 5)])

    def test_deadlock_seeker_finds_deadlock_on_dict_payloads(self):
        witness = DeadlockAdversary().search(
            self.BROKEN, DictWaitForNeighbor(), SYNC)
        assert witness.deadlock
        replayed = replay_schedule(self.BROKEN, DictWaitForNeighbor(),
                                   SYNC, witness.schedule)
        assert replayed.corrupted

    def test_memo_actually_prunes_dict_payload_search(self):
        # Constant payloads make permuted prefixes digest identically:
        # the memoised DFS must explore strictly less than the full
        # n!-leaf tree (the old key skipped the memo here entirely).
        g = gen.path_graph(5)
        witness = DeadlockAdversary().search(g, DictPayloadProtocol(), SYNC)
        assert not witness.deadlock
        schedules = sum(
            1 for _ in all_executions(g, DictPayloadProtocol(), SYNC))
        assert witness.explored < schedules

    def test_dict_payload_configurations_enter_the_table(self):
        g = gen.path_graph(4)
        ctx = _shared_context()
        BranchAndBoundAdversary().search(g, DictPayloadProtocol(), SYNC,
                                         context=ctx)
        assert len(ctx.table) > 0  # keys stored, not skipped
        witness = DeadlockAdversary().search(g, DictPayloadProtocol(), SYNC,
                                             context=ctx)
        assert ctx.table.hits > 0
        assert not witness.deadlock

    def test_bnb_exact_on_dict_payloads(self):
        g = gen.path_graph(4)
        truth_bits, truth_dead = ground_truth(
            g, DictPayloadProtocol, SYNC)
        for context in (None, _shared_context()):
            witness = BranchAndBoundAdversary().search(
                g, DictPayloadProtocol(), SYNC, context=context)
            assert witness.deadlock == truth_dead
            assert witness.bits == truth_bits

    def test_dict_payload_stress_cell_reports_witnesses(self):
        # End to end through the plan layer: a search cell over a
        # dict-payload protocol records replayable witnesses.
        from repro.runtime.plan import ExecutionPlan

        g = gen.path_graph(5)
        plan = ExecutionPlan.build(
            DictWaitForNeighbor(), SYNC, [self.BROKEN, g],
            mode="stress", checker=lambda graph, out, res: True,
            exhaustive_threshold=4, allow_deadlock=True,
            share_table=True,
        )
        report = plan.verification_report()
        assert report.witnesses
        assert any(w.deadlock for w in report.witnesses
                   if w.graph.n == self.BROKEN.n)


class TestScoreHooks:
    def test_registry_resolves_names_and_instances(self):
        assert isinstance(resolve_score(None), BitsGreedyScore)
        assert isinstance(resolve_score("deadlock-first"),
                          DeadlockFirstScore)
        hook = DecodeFailureScore()
        assert resolve_score(hook) is hook
        with pytest.raises(ValueError, match="unknown score hook"):
            resolve_score("no-such-hook")

    def test_hooks_have_primitive_identity(self):
        from repro.campaigns.store import _component_key

        strategy = GreedyBitsAdversary(score="deadlock-first")
        key = _component_key(strategy)
        assert key["params"]["score_name"] == "deadlock-first"

    def test_default_hook_reproduces_historic_behaviour(self):
        # score=None must be bit-for-bit the pre-hook greedy/beam.
        g = gen.random_even_odd_bipartite(6, 0.5, seed=1)
        for make in (
            lambda score: GreedyBitsAdversary(restarts=2, score=score),
            lambda score: BeamSearchAdversary(width=8, score=score),
        ):
            default = make(None).search(g, EobBfsProtocol(), ASYNC)
            explicit = make(BitsGreedyScore()).search(
                g, EobBfsProtocol(), ASYNC)
            assert default == explicit

    @pytest.mark.parametrize("score", sorted(
        ["bits-greedy", "deadlock-first", "decode-failure"]))
    def test_all_hooks_yield_sound_witnesses(self, score):
        g = gen.random_even_odd_bipartite(6, 0.5, seed=1)
        for make in (
            lambda: GreedyBitsAdversary(restarts=1, score=score),
            lambda: BeamSearchAdversary(width=4, score=score),
        ):
            witness = make().search(g, EobBfsProtocol(), ASYNC)
            replayed = replay_schedule(g, EobBfsProtocol(), ASYNC,
                                       witness.schedule)
            assert replayed.max_message_bits == witness.bits
            assert replayed.corrupted == witness.deadlock

    def test_deadlock_first_hook_still_finds_deadlock(self):
        broken = LabeledGraph(5, [(1, 2), (1, 3), (2, 3), (4, 5)])
        witness = GreedyBitsAdversary(
            restarts=1, score="deadlock-first"
        ).search(broken, BipartiteBfsAsyncProtocol(), ASYNC)
        assert witness.deadlock

    def test_portfolio_threads_score_hook(self):
        portfolio = default_search_portfolio(score="deadlock-first")
        assert portfolio[0].score_name == "deadlock-first"
        assert portfolio[1].score_name == "deadlock-first"


class TestContextBudget:
    def test_cell_budget_caps_the_whole_portfolio(self):
        g = gen.random_even_odd_bipartite(6, 0.5, seed=1)
        ctx = SearchContext(max_steps=40)
        witnesses = [
            strategy.search(g, EobBfsProtocol(), ASYNC, context=ctx)
            for strategy in default_search_portfolio()
        ]
        # Every strategy still returns a sound, replayable witness.
        for witness in witnesses:
            replayed = replay_schedule(g, EobBfsProtocol(), ASYNC,
                                       witness.schedule)
            assert replayed.max_message_bits == witness.bits

    def test_meter_raises_past_strategy_budget(self):
        ctx = SearchContext()
        meter = ctx.meter(2)
        meter.spend()
        meter.spend()
        with pytest.raises(OutOfBudget):
            meter.spend()
        assert ctx.stats.steps == 3

    def test_invalid_context_budget_rejected(self):
        with pytest.raises(ValueError):
            SearchContext(max_steps=0)

    def test_rng_matches_historic_streams(self):
        import random

        assert (SearchContext.rng(7, 2).random()
                == random.Random("7:2").random())


class TestKernelPlanIntegration:
    def test_stress_cells_share_table_field_identical_reports(self):
        from repro.analysis.checkers import default_checker
        from repro.core.models import MODELS_BY_NAME
        from repro.runtime.plan import ExecutionPlan

        instances = [gen.random_even_odd_bipartite(6, 0.5, seed=1)]

        def build(share_table):
            return ExecutionPlan.build(
                EobBfsProtocol(),
                MODELS_BY_NAME["ASYNC"],
                instances,
                mode="stress",
                checker=default_checker("eob-bfs"),
                exhaustive_threshold=4,
                share_table=share_table,
            )

        off = build(False).verification_report()
        on = build(True).verification_report()
        assert on.witnesses == off.witnesses
        assert on.max_bits_by_n == off.max_bits_by_n
        assert on.failures == off.failures

    def test_score_knob_requires_stress_mode(self):
        from repro.runtime.plan import ExecutionPlan

        with pytest.raises(ValueError, match="search-kernel knobs"):
            ExecutionPlan.build(
                EobBfsProtocol(), ASYNC, [gen.path_graph(4)],
                mode="verify", checker=lambda g, o, r: True,
                score="bits-greedy",
            )

    def test_unknown_score_fails_at_build_time(self):
        from repro.runtime.plan import ExecutionPlan

        with pytest.raises(ValueError, match="unknown score hook"):
            ExecutionPlan.build(
                EobBfsProtocol(), ASYNC, [gen.path_graph(4)],
                mode="stress", checker=lambda g, o, r: True,
                score="bogus",
            )

    def test_knobs_change_task_fingerprints(self):
        from repro.analysis.checkers import default_checker
        from repro.campaigns.store import task_fingerprint
        from repro.core.models import MODELS_BY_NAME
        from repro.runtime.plan import ExecutionPlan

        def search_task(**kwargs):
            plan = ExecutionPlan.build(
                EobBfsProtocol(),
                MODELS_BY_NAME["ASYNC"],
                [gen.random_even_odd_bipartite(6, 0.5, seed=1)],
                mode="stress",
                checker=default_checker("eob-bfs"),
                exhaustive_threshold=4,
                **kwargs,
            )
            (task,) = plan.tasks
            assert task.mode == "search"
            return task

        base = task_fingerprint(search_task(), "s")
        scored = task_fingerprint(search_task(score="deadlock-first"), "s")
        shared = task_fingerprint(search_task(share_table=True), "s")
        assert len({base, scored, shared}) == 3

    def test_simasync_collapse_unaffected_by_table(self):
        g = gen.random_k_degenerate(5, 2, seed=3)
        off = BranchAndBoundAdversary().search(
            g, DegenerateBuildProtocol(2), SIMASYNC)
        on = BranchAndBoundAdversary().search(
            g, DegenerateBuildProtocol(2), SIMASYNC,
            context=_shared_context())
        assert on.schedule == off.schedule
        assert on.bits == off.bits
