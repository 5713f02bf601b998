"""Pinned serial searches: witnesses and explored counts must not move.

Branch-and-bound and the deadlock seeker each run one scalar DFS per
cell.  ``tests/fixtures/search_golden.json`` records, for every cell of
the matrix below, the witness (schedule, bits, explored count) and the
cumulative ``SearchStats`` the serial search produced when the fixture
was captured.  Any change to the search order, the pruning rule or the
step metering shows up here as a field mismatch.  Every witness must
also replay: its schedule, re-run from the initial configuration under
the same faults, has to force the bits or deadlock it claims.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.adversaries import (
    BranchAndBoundAdversary,
    DeadlockAdversary,
    SearchContext,
    TranspositionTable,
    schedule_forces,
    witness_rank,
)
from repro.core.models import ASYNC, SIMASYNC, SIMSYNC, SYNC
from repro.core.simulator import all_executions
from repro.graphs import generators as gen
from repro.protocols.bfs import EobBfsProtocol, SyncBfsProtocol
from repro.protocols.build import DegenerateBuildProtocol
from repro.protocols.connectivity import ConnectivityProtocol

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "fixtures" / "search_golden.json")
    .read_text())

FIXTURES = [
    pytest.param("build-simasync", gen.random_k_degenerate(5, 2, seed=0),
                 DegenerateBuildProtocol(2), SIMASYNC, id="build-simasync"),
    pytest.param("build-simsync", gen.random_k_degenerate(5, 2, seed=1),
                 DegenerateBuildProtocol(2), SIMSYNC, id="build-simsync"),
    pytest.param("eob-sync", gen.random_connected_graph(5, 0.5, seed=3),
                 EobBfsProtocol(), SYNC, id="eob-sync"),
    # The layer-certified BFS protocols decide from a parse of the whole
    # board, so these cells pin every protocol-facing board view.
    pytest.param("bfs-sync", gen.random_connected_graph(6, 0.5, seed=2),
                 SyncBfsProtocol(), SYNC, id="bfs-sync"),
    pytest.param("connectivity-sync", gen.two_cliques(3),
                 ConnectivityProtocol(), SYNC, id="connectivity-sync"),
    pytest.param("eob-async", gen.random_even_odd_bipartite(6, 0.6, seed=1),
                 EobBfsProtocol(), ASYNC, id="eob-async"),
]

FAULTS = [None, "crash:1", "crash:1,loss:1"]


def _fields(strategy, graph, proto, model, faults, table=False):
    ctx = SearchContext(table=TranspositionTable() if table else None)
    witness = strategy.search(graph, proto, model, context=ctx,
                              faults=faults)
    stats = ctx.stats
    record = asdict(witness)
    record["schedule"] = list(record["schedule"])
    if record["minimal_schedule"] is not None:
        record["minimal_schedule"] = list(record["minimal_schedule"])
    return witness, {
        "witness": record,
        "stats": [stats.steps, stats.searches, stats.restarts,
                  stats.batch_children, stats.batch_kept,
                  stats.bound_prunes],
    }


def _assert_replays(witness, graph, proto, model, faults):
    assert schedule_forces(graph, proto, model, witness.schedule,
                           bits=witness.bits, deadlock=witness.deadlock,
                           faults=faults)


@pytest.mark.parametrize("fid,graph,proto,model", FIXTURES)
@pytest.mark.parametrize("faults", FAULTS)
@pytest.mark.parametrize("table", [False, True], ids=["plain", "table"])
def test_bnb_search_pinned(fid, graph, proto, model, faults, table):
    """The table-free sweep never prunes and the table run prunes on
    stored bounds; both land on the pinned witness, and both reach the
    cell's true worst ``(deadlock, max bits, total bits)`` rank.  With no
    deadlock in the cell that is its worst message size; under crash
    faults the BFS cells can deadlock, and a deadlock outranks bits."""
    witness, fields = _fields(BranchAndBoundAdversary(restarts=0), graph,
                              proto, model, faults, table=table)
    key = f"{fid}|{faults}|{'table' if table else 'plain'}"
    assert fields == GOLDEN["bnb"][key]
    _assert_replays(witness, graph, proto, model, faults)
    worst = max((r.corrupted, r.max_message_bits, r.total_bits)
                for r in all_executions(graph, proto, model, faults=faults))
    assert witness_rank(witness) == worst


@pytest.mark.parametrize("fid,graph,proto,model", FIXTURES)
@pytest.mark.parametrize("faults", FAULTS)
@pytest.mark.parametrize("max_steps", [None, 500, 50])
def test_deadlock_search_pinned(fid, graph, proto, model, faults,
                                max_steps):
    witness, fields = _fields(DeadlockAdversary(max_steps=max_steps), graph,
                              proto, model, faults)
    assert fields == GOLDEN["deadlock"][f"{fid}|{faults}|{max_steps}"]
    _assert_replays(witness, graph, proto, model, faults)
