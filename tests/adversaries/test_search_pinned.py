"""Pinned serial searches: witnesses and explored counts must not move.

Branch-and-bound and the deadlock seeker each run one scalar DFS per
cell; the beam runs one scalar breadth-first pass per restart.
``tests/fixtures/search_golden.json`` records, for every cell of the
matrix below, the witness (schedule, bits, explored count) and the
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
    BeamSearchAdversary,
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


def _fields(strategy, graph, proto, model, faults, table=False,
            bit_budget=None, max_steps=None):
    ctx = SearchContext(table=TranspositionTable() if table else None,
                        max_steps=max_steps)
    witness = strategy.search(graph, proto, model, bit_budget, context=ctx,
                              faults=faults)
    stats = ctx.stats
    record = asdict(witness)
    record["schedule"] = list(record["schedule"])
    if record["minimal_schedule"] is not None:
        record["minimal_schedule"] = list(record["minimal_schedule"])
    return witness, {
        "witness": record,
        "stats": [stats.steps, stats.searches, stats.restarts],
    }


def _assert_replays(witness, graph, proto, model, faults):
    assert schedule_forces(graph, proto, model, witness.schedule,
                           bits=witness.bits, deadlock=witness.deadlock,
                           faults=faults)


@pytest.mark.parametrize("fid,graph,proto,model", FIXTURES)
@pytest.mark.parametrize("faults", FAULTS)
@pytest.mark.parametrize("table", [False, True], ids=["plain", "table"])
def test_bnb_search_pinned(fid, graph, proto, model, faults, table):
    """The table-free sweep and the table run (which composes stored
    exact frontiers) both land on the pinned witness, and both reach the
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


def test_bnb_table_witness_matches_plain():
    """A transposition table only saves work: every pinned table
    witness equals its table-free twin in every field but
    ``explored``."""
    pinned = GOLDEN["bnb"]
    pairs = [(key, key[:-len("table")] + "plain")
             for key in pinned if key.endswith("|table")]
    assert pairs
    for table_key, plain_key in pairs:
        table = dict(pinned[table_key]["witness"], explored=None)
        plain = dict(pinned[plain_key]["witness"], explored=None)
        assert table == plain, table_key


@pytest.mark.parametrize("fid,graph,proto,model", FIXTURES)
@pytest.mark.parametrize("faults", FAULTS)
@pytest.mark.parametrize("max_steps", [None, 500, 50])
def test_deadlock_search_pinned(fid, graph, proto, model, faults,
                                max_steps):
    witness, fields = _fields(DeadlockAdversary(max_steps=max_steps), graph,
                              proto, model, faults)
    assert fields == GOLDEN["deadlock"][f"{fid}|{faults}|{max_steps}"]
    _assert_replays(witness, graph, proto, model, faults)


BEAM_CELLS = (
    [pytest.param(faults, {"score": score}, score, id=f"{faults}-{score}")
     for faults in FAULTS
     for score in ("bits-greedy", "deadlock-first", "decode-failure")]
    + [pytest.param(None, {"bit_budget": 4}, "bit_budget=4",
                    id="bit_budget=4")]
    + [pytest.param(None, {"max_steps": m}, f"max_steps={m}",
                    id=f"max_steps={m}") for m in (1, 7, 40, 200)]
    + [pytest.param(None, {"width": w, "restarts": r},
                    f"width={w},restarts={r}", id=f"width={w},restarts={r}")
       for w, r in ((1, 0), (2, 3), (8, 2), (64, 1))]
    + [pytest.param("dup:1", {}, "bits-greedy", id="dup:1-bits-greedy")]
)


@pytest.mark.parametrize("fid,graph,proto,model", FIXTURES)
@pytest.mark.parametrize("faults,knobs,variant", BEAM_CELLS)
def test_beam_search_pinned(fid, graph, proto, model, faults, knobs,
                            variant):
    """Each score hook, with and without faults; a bit budget the first
    write already breaks (the exception type and message are pinned);
    context step budgets that cut the beam at every depth, where the
    search falls back to its incumbent or an ascending completion; and
    beam shapes from one lane to 64."""
    strategy = BeamSearchAdversary(width=knobs.get("width", 4),
                                   restarts=knobs.get("restarts", 2), seed=0,
                                   score=knobs.get("score"))
    golden = GOLDEN["beam"][f"{fid}|{faults}|{variant}"]
    try:
        witness, fields = _fields(
            strategy, graph, proto, model, faults,
            bit_budget=knobs.get("bit_budget"),
            max_steps=knobs.get("max_steps"))
    except Exception as exc:
        assert golden == {"error": [type(exc).__name__, str(exc)]}
        return
    assert fields == golden
    _assert_replays(witness, graph, proto, model, faults)
