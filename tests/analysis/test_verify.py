"""Tests for the verification harness."""

import pickle

import pytest

from repro.analysis.checkers import (
    BfsCanonical,
    BuildEqualsInput,
    ConnectivityCorrect,
    EobBfsCorrect,
    MisValid,
    SpanningForestCanonical,
    SquareCorrect,
    TriangleCorrect,
    TwoCliquesCorrect,
)
from repro.analysis.verify import verify_protocol
from repro.core import ASYNC, SIMASYNC, SIMSYNC, SYNC
from repro.core.protocol import NodeView, Protocol
from repro.core.schedulers import MinIdScheduler
from repro.graphs import generators as gen
from repro.graphs.properties import is_rooted_mis
from repro.protocols.bfs import SyncBfsProtocol
from repro.protocols.build import DegenerateBuildProtocol
from repro.protocols.mis import RootedMisProtocol
from repro.runtime import ProcessPoolBackend


class TestHappyPath:
    def test_build_verifies(self):
        instances = [gen.random_k_degenerate(n, 2, seed=n) for n in (4, 8, 12)]
        report = verify_protocol(
            DegenerateBuildProtocol(2), SIMASYNC, instances,
            lambda g, out, r: out == g,
        )
        assert report.ok
        assert report.instances == 3
        assert report.exhaustive_instances == 1  # n=4 within threshold
        assert report.executions > 24  # 4! exhaustive + portfolio runs
        assert report.max_message_bits > 0
        assert set(report.max_bits_by_n) == {4, 8, 12}
        assert "OK" in report.summary()

    def test_mis_verifies(self):
        report = verify_protocol(
            RootedMisProtocol(1), SIMSYNC,
            [gen.random_graph(5, 0.5, seed=s) for s in range(3)],
            lambda g, out, r: is_rooted_mis(g, out, 1),
        )
        assert report.ok and report.exhaustive_instances == 3


class _WrongProtocol(Protocol):
    name = "wrong"

    def message(self, view: NodeView):
        return view.node

    def output(self, board, n):
        return "nonsense"


class _DeadlockProtocol(Protocol):
    name = "stuck"

    def wants_to_activate(self, view):
        return view.node == 1  # only node 1 ever activates

    def message(self, view: NodeView):
        return view.node

    def output(self, board, n):
        return None


class TestFailureDetection:
    def test_wrong_output_flagged(self):
        report = verify_protocol(
            _WrongProtocol(), SIMASYNC, [gen.path_graph(3)],
            lambda g, out, r: out == g,
        )
        assert not report.ok
        assert all(f.kind == "wrong-output" for f in report.failures)
        assert "FAILURES" in report.summary()

    def test_deadlock_flagged(self):
        report = verify_protocol(
            _DeadlockProtocol(), ASYNC, [gen.path_graph(3)],
            lambda g, out, r: True,
        )
        assert not report.ok
        assert report.failures[0].kind == "deadlock"

    def test_deadlock_tolerated_when_allowed(self):
        report = verify_protocol(
            _DeadlockProtocol(), ASYNC, [gen.path_graph(3)],
            lambda g, out, r: True,
            allow_deadlock=True,
        )
        assert report.ok

    def test_bit_budget_passthrough(self):
        from repro.core.errors import MessageTooLarge

        with pytest.raises(MessageTooLarge):
            verify_protocol(
                DegenerateBuildProtocol(2), SIMASYNC,
                [gen.random_k_degenerate(8, 2, seed=1)],
                lambda g, out, r: True,
                schedulers=[MinIdScheduler()],
                bit_budget=lambda n: 3,
            )


class TestCheckers:
    """The picklable checkers agree with direct oracle calls."""

    def test_pickle_roundtrip(self):
        for checker in (BuildEqualsInput(), MisValid(3), BfsCanonical(),
                        EobBfsCorrect(), TwoCliquesCorrect(), TriangleCorrect(),
                        SquareCorrect(), ConnectivityCorrect(),
                        SpanningForestCanonical()):
            assert pickle.loads(pickle.dumps(checker)) == checker

    def test_build_checker(self):
        g = gen.random_k_degenerate(6, 2, seed=1)
        assert BuildEqualsInput()(g, g, None)
        assert not BuildEqualsInput()(g, gen.path_graph(6), None)

    def test_mis_checker(self):
        g = gen.star_graph(5)
        assert MisValid(1)(g, frozenset({1}), None)
        assert not MisValid(2)(g, frozenset({1}), None)


_POOL_CASES = {
    "build": (DegenerateBuildProtocol(2), SIMASYNC, BuildEqualsInput(),
              lambda: [gen.random_k_degenerate(n, 2, seed=n)
                       for n in (4, 8, 12)]),
    "mis": (RootedMisProtocol(2), SIMSYNC, MisValid(2),
            lambda: [gen.random_connected_graph(8, 0.3, seed=s)
                     for s in range(3)]),
    "bfs": (SyncBfsProtocol(), SYNC, BfsCanonical(),
            lambda: [gen.random_graph(9, 0.3, seed=s) for s in range(3)]),
    # Wrong oracle on purpose: BUILD output is a graph, never an int.
    "failures-propagate": (DegenerateBuildProtocol(2), SIMASYNC,
                           TriangleCorrect(),
                           lambda: [gen.random_k_degenerate(6, 2, seed=1)]),
    "empty": (DegenerateBuildProtocol(2), SIMASYNC, BuildEqualsInput(),
              lambda: []),
}


@pytest.mark.parametrize("case", sorted(_POOL_CASES))
def test_process_pool_equals_serial(case):
    """A two-worker pool yields the serial report field for field —
    verdicts, failures, witnesses and bit maxima alike."""
    protocol, model, checker, instances = _POOL_CASES[case]
    serial = verify_protocol(protocol, model, instances(), checker)
    pooled = verify_protocol(protocol, model, instances(), checker,
                             backend=ProcessPoolBackend(jobs=2))
    assert pooled == serial
    assert pooled.instances == len(instances())
    if case == "failures-propagate":
        assert not pooled.ok and pooled.failures
    else:
        assert pooled.ok
