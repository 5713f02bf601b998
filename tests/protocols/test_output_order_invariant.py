"""The ``output_order_invariant`` declaration, checked as a property.

A protocol that sets :attr:`Protocol.output_order_invariant` lets
exhaustive runs decode each distinct board multiset once and share the
result between every schedule that wrote it.  That is only sound when
the declaration holds, so for every census protocol that makes it:

* permuting a terminal board taken from a real execution never changes
  ``(output, output_error)``;
* the same holds on fault-perturbed boards — one entry dropped, one
  entry duplicated — and on boards written under a fault budget;
* its outputs are hashable (immutable), because one output object is
  shared by every run with that multiset.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.execution import ExecutionState, board_output
from repro.core.models import MODELS_BY_NAME
from repro.graphs import generators as gen
from repro.protocols.census import CENSUS

FLAGGED = [entry for entry in CENSUS
           if entry.instantiate().output_order_invariant]


def test_flag_covers_the_build_family():
    assert {entry.key for entry in FLAGGED} >= {
        "build-forest", "build-degenerate", "triangle-degenerate",
        "square-degenerate", "diameter-degenerate",
    }


def _outcome(proto, payloads, n):
    return board_output(proto, payloads, n, faulted=True)


def _terminal_board(data, entry, n, seed, dense, faults):
    """Drive one real execution to a terminal board, the adversary's
    choices drawn by hypothesis."""
    proto = entry.instantiate()
    graph = (gen.random_graph(n, 0.8, seed=seed) if dense
             else gen.random_k_degenerate(n, getattr(proto, "k", 2),
                                          seed=seed))
    state = ExecutionState.initial(graph, proto,
                                   MODELS_BY_NAME[entry.model],
                                   faults=faults)
    while not state.terminal:
        state.advance(data.draw(st.sampled_from(state.candidates)))
    return proto, [e.payload for e in state.board.entries]


@pytest.mark.parametrize("entry", FLAGGED, ids=lambda e: e.key)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(2, 7), seed=st.integers(0, 50),
       dense=st.booleans(),
       faults=st.sampled_from([None, "crash:1,loss:1,dup:1"]))
def test_permuting_the_board_never_changes_the_outcome(
        entry, data, n, seed, dense, faults):
    proto, board = _terminal_board(data, entry, n, seed, dense, faults)
    expected = _outcome(proto, board, n)
    shuffled = data.draw(st.permutations(board))
    assert _outcome(proto, shuffled, n) == expected


@pytest.mark.parametrize("entry", FLAGGED, ids=lambda e: e.key)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(2, 7), seed=st.integers(0, 50),
       dense=st.booleans(), duplicate=st.booleans())
def test_perturbed_boards_stay_order_invariant(
        entry, data, n, seed, dense, duplicate):
    proto, board = _terminal_board(data, entry, n, seed, dense, None)
    i = data.draw(st.integers(0, len(board) - 1))
    if duplicate:
        perturbed = board[:i + 1] + [board[i]] + board[i + 1:]
    else:
        perturbed = board[:i] + board[i + 1:]
    expected = _outcome(proto, perturbed, n)
    shuffled = data.draw(st.permutations(perturbed))
    assert _outcome(proto, shuffled, n) == expected


@pytest.mark.parametrize("entry", FLAGGED, ids=lambda e: e.key)
def test_flagged_protocols_are_stateless_with_hashable_outputs(entry):
    proto = entry.instantiate()
    graph = gen.random_k_degenerate(6, getattr(proto, "k", 2), seed=3)
    state = ExecutionState.initial(graph, proto,
                                   MODELS_BY_NAME[entry.model])
    while not state.terminal:
        state.advance(state.candidates[0])
    board = [e.payload for e in state.board.entries]
    for payloads in (board, board[1:], board + board[:1]):
        output, _ = _outcome(proto, payloads, graph.n)
        hash(output)
