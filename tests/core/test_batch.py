"""Equivalence tests for the batched structure-of-arrays core.

The scalar :class:`~repro.core.execution.ExecutionState` is the only
semantic authority; :mod:`repro.core.batch` is the beam search's
equivalence-pinned engine.  Every test here therefore steps the batched
core through its beam seams (``root``/``expansion``/``fork``/
``compact``) and compares it against the scalar engine *field for
field* — every terminal lane's schedule, bit accounting, deadlock flag
and crash set against the scalar leaves in DFS order, bit-identical
configuration digests, and the exception a budget-violating lane
captures — across all four timing models and the fault spectrum.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.core.batch import BatchedExecutionState, _BatchCell, batch_supported
from repro.core.execution import ExecutionState
from repro.core.models import ALL_MODELS, ASYNC, SIMASYNC, SIMSYNC, SYNC
from repro.core.simulator import count_executions, terminal_states
from repro.faults.spec import resolve_faults
from repro.graphs import generators as gen
from repro.protocols.bfs import EobBfsProtocol
from repro.protocols.build import DegenerateBuildProtocol

if not batch_supported(gen.cycle_graph(3), DegenerateBuildProtocol(2),
                       SIMASYNC):
    pytest.skip("batched core unsupported (numpy < 2.0)",
                allow_module_level=True)


FIXTURES = [
    pytest.param(gen.random_k_degenerate(5, 2, seed=0),
                 DegenerateBuildProtocol(2), SIMASYNC, id="build-simasync"),
    pytest.param(gen.random_k_degenerate(5, 2, seed=1),
                 DegenerateBuildProtocol(2), SIMSYNC, id="build-simsync"),
    pytest.param(gen.path_graph(5), EobBfsProtocol(), ASYNC,
                 id="eob-async"),
    pytest.param(gen.random_connected_graph(5, 0.5, seed=3),
                 EobBfsProtocol(), SYNC, id="eob-sync"),
]

FAULTS = [None, "crash:1", "crash:1,loss:1", "dup:1"]


def _dfs_key(schedule: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Rank of a schedule in the scalar DFS: at every branch writes come
    first (ascending), then crash, loss and duplication events, whose
    signed codes ``-v``, ``-(n+v)``, ``-(2n+v)`` rank as ``n - choice``."""
    return tuple(c if c > 0 else n - c for c in schedule)


def _scalar_leaves(graph, proto, model, faults, budget=None):
    """``(leaves, exception)``: the scalar walk's terminal tuples in DFS
    order, up to the exception a step raised (``None`` if none did)."""
    leaves: list = []
    try:
        state = ExecutionState.initial(graph, proto, model, budget,
                                       faults=faults)
        for leaf in terminal_states(state):
            bits = [e.bits for e in leaf.board.entries]
            leaves.append((leaf.schedule, max(bits, default=0), sum(bits),
                           leaf.deadlocked, frozenset(leaf.crashed)))
    except Exception as exc:  # noqa: BLE001 - compared against the lanes
        return leaves, exc
    return leaves, None


def _frontier_walk(graph, proto, model, faults, budget=None):
    """``(leaves, violations)`` from stepping the whole batched frontier
    to every terminal lane: terminal tuples sorted into DFS order, and
    each dead lane's captured exception keyed by its schedule."""
    cell = _BatchCell(graph, proto, model, budget, resolve_faults(faults))
    frontier = BatchedExecutionState.root(cell)
    leaves: list = []
    violations: dict = {}
    while True:
        for lane, exc in frontier.violations.items():
            violations[frontier.schedule_of(lane)] = exc
        live = ~frontier.dead
        terminal = frontier.terminal_mask() & live
        for lane in np.nonzero(terminal)[0].tolist():
            crashed = int(frontier.crashed[lane])
            leaves.append((
                frontier.schedule_of(lane),
                int(frontier.maxb[lane]),
                int(frontier.totb[lane]),
                frontier.deadlocked_at(lane),
                frozenset(v for v in graph.nodes()
                          if crashed >> (v - 1) & 1),
            ))
        frontier = frontier.compact(np.nonzero(live & ~terminal)[0])
        if not frontier.size:
            break
        frontier = frontier.fork(*frontier.expansion())
    leaves.sort(key=lambda leaf: _dfs_key(leaf[0], graph.n))
    return leaves, violations


def _assert_walk_matches_scalar(graph, proto, model, faults, budget=None):
    """Terminal lanes equal the scalar leaves in DFS order; when the
    scalar walk raises, the DFS-first violating lane captured the same
    exception and exactly the leaves before it are terminal lanes."""
    scalar, scalar_exc = _scalar_leaves(graph, proto, model, faults, budget)
    try:
        leaves, violations = _frontier_walk(graph, proto, model, faults,
                                            budget)
    except Exception as exc:  # noqa: BLE001 - round-0 raises are raw
        assert not scalar and type(exc) is type(scalar_exc)
        assert str(exc) == str(scalar_exc)
        return
    if scalar_exc is None:
        assert not violations
        assert leaves == scalar
        return
    first = min(violations, key=lambda sched: _dfs_key(sched, graph.n))
    assert type(violations[first]) is type(scalar_exc)
    assert str(violations[first]) == str(scalar_exc)
    cut = _dfs_key(first, graph.n)
    assert [leaf for leaf in leaves
            if _dfs_key(leaf[0], graph.n) < cut] == scalar


@pytest.mark.parametrize("graph,proto,model", FIXTURES)
@pytest.mark.parametrize("faults", FAULTS)
def test_terminal_lanes_match_scalar_leaves(graph, proto, model, faults):
    _assert_walk_matches_scalar(graph, proto, model, faults)


@pytest.mark.parametrize("graph,proto,model", FIXTURES)
@pytest.mark.parametrize("faults", [None, "crash:1"])
def test_count_executions_identical(graph, proto, model, faults):
    """The frontier reaches exactly as many terminal lanes, with
    pairwise distinct schedules, as the scalar engine counts leaves."""
    leaves, violations = _frontier_walk(graph, proto, model, faults)
    assert not violations
    assert len({leaf[0] for leaf in leaves}) == len(leaves)
    assert len(leaves) == count_executions(graph, proto, model,
                                           faults=faults)


@pytest.mark.parametrize("graph,proto,model", FIXTURES)
def test_config_keys_bit_identical(graph, proto, model):
    """Batched digests equal scalar ``config_key()`` along every prefix
    of a breadth-first walk — ``faults=None`` included, whose keys must
    not grow a fault component."""
    cell = _BatchCell(graph, proto, model, None, resolve_faults(None))
    batch = BatchedExecutionState.root(cell)
    scalars = [ExecutionState.initial(graph, proto, model)]
    for _ in range(3):
        assert all(not s.faults.enabled for s in scalars)
        for lane, state in enumerate(scalars):
            assert batch.config_key_of(lane) == state.config_key()
        lanes, choices = batch.expansion()
        if lanes.size == 0:
            break
        batch = batch.fork(lanes, choices)
        scalars = [scalars[p].copy().advance(c)
                   for p, c in zip(lanes.tolist(), choices.tolist())]
        live = np.nonzero(~batch.terminal_mask())[0]
        batch = batch.compact(live)
        scalars = [scalars[i] for i in live.tolist()]
        if not scalars:
            break


def test_budget_violating_lane_matches_scalar():
    g = gen.random_k_degenerate(5, 2, seed=0)
    proto = DegenerateBuildProtocol(2)
    _, scalar_exc = _scalar_leaves(g, proto, SIMASYNC, None, budget=8)
    assert scalar_exc is not None
    _, violations = _frontier_walk(g, proto, SIMASYNC, None, budget=8)
    assert violations
    assert {type(exc) for exc in violations.values()} == {type(scalar_exc)}
    _assert_walk_matches_scalar(g, proto, SIMASYNC, None, budget=8)


@st.composite
def _random_cells(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    kind = draw(st.sampled_from(["kdeg", "cycle", "conn"]))
    seed = draw(st.integers(min_value=0, max_value=6))
    if kind == "kdeg":
        graph = gen.random_k_degenerate(n, min(2, n - 1), seed=seed)
        proto = DegenerateBuildProtocol(min(2, n - 1))
    elif kind == "cycle":
        graph = gen.cycle_graph(max(n, 3))
        proto = DegenerateBuildProtocol(2)
    else:
        graph = gen.random_connected_graph(n, 0.6, seed=seed)
        proto = EobBfsProtocol()
    model = draw(st.sampled_from(ALL_MODELS))
    faults = draw(st.sampled_from([None, "crash:1", "loss:1", "dup:1"]))
    budget = draw(st.sampled_from([None, None, 48]))
    return graph, proto, model, faults, budget


@given(_random_cells())
@settings(max_examples=40, deadline=None)
def test_random_cells_frontier_matches_scalar(cell):
    graph, proto, model, faults, budget = cell
    _assert_walk_matches_scalar(graph, proto, model, faults, budget)
