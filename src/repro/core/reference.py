"""Reference configuration semantics (Section 2.1) and differential
validation.

Section 2.1 defines executions as sequences of *configurations*
``(s, m, W)`` — global node states, local memories, whiteboard — with a
valid-successor relation.  The event-loop engine in
:mod:`repro.core.simulator` is optimised for running many executions;
this module is its independent, deliberately straight-line counterpart:

* :func:`replay` re-executes a given write order directly from the
  configuration rules, producing the full configuration sequence;
* :func:`validate_run` replays a :class:`~repro.core.simulator.RunResult`
  and checks every Section 2 constraint, returning a list of violations
  (empty = the run is a valid execution).

Because the two implementations share no code beyond the protocol
object, agreement between them is strong evidence that the engine
implements the paper's semantics (the differential test suite runs every
protocol in the package through both).

One convention is worth stating explicitly: the paper's transition
relation computes new memories from the *previous* state, which read
literally would make a node writable only one round after it activates —
and would deadlock the paper's own layer-by-layer protocols whenever a
fresh layer is the only source of active nodes.  Both implementations
therefore use the narrative semantics ("a node becoming active ...
computes a message which is stored in its local memory", i.e. activation
and message creation are simultaneous, based on the board at the end of
the previous round).  This is the reading under which Theorem 7/10's
correctness arguments go through, and it is flagged in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional, Sequence

from ..encoding.bits import Payload
from ..graphs.labeled_graph import LabeledGraph
from .models import ModelSpec
from .protocol import NodeView, Protocol
from .simulator import RunResult
from .whiteboard import BoardView

__all__ = ["NodeState", "Configuration", "replay", "validate_run"]


class NodeState(Enum):
    """The paper's three node states."""

    AWAKE = "awake"
    ACTIVE = "active"
    TERMINATED = "terminated"


#: The empty message ε: a node that is not active "creates" this.
_EPSILON = None


@dataclass(frozen=True)
class Configuration:
    """One configuration ``(s, m, W)``; index 0 of the tuples is node 1."""

    states: tuple[NodeState, ...]
    memories: tuple[Optional[Payload], ...]
    board: tuple[Payload, ...]

    def state_of(self, node: int) -> NodeState:
        return self.states[node - 1]

    def memory_of(self, node: int) -> Optional[Payload]:
        return self.memories[node - 1]

    @property
    def is_final(self) -> bool:
        return NodeState.ACTIVE not in self.states

    @property
    def is_successful(self) -> bool:
        return all(s is NodeState.TERMINATED for s in self.states)

    @property
    def is_corrupted(self) -> bool:
        return self.is_final and not self.is_successful


class ReplayError(ValueError):
    """The given write order is not realisable under the semantics."""


def replay(
    graph: LabeledGraph,
    protocol: Protocol,
    model: ModelSpec,
    write_order: Sequence[int],
) -> list[Configuration]:
    """Execute ``write_order`` under the configuration rules.

    Returns the configuration sequence ``C_0, C_1, ...`` where ``C_0`` is
    the initial configuration, ``C_1`` the activation round, and each
    later configuration adds exactly one whiteboard message.

    Raises
    ------
    ReplayError
        If the order names an inactive/written node, or repeats a node.
    """
    n = graph.n
    states = [NodeState.AWAKE] * (n + 1)  # index 0 unused
    memories: list[Optional[Payload]] = [_EPSILON] * (n + 1)
    board: list[Payload] = []
    written: set[int] = set()
    configs: list[Configuration] = []

    def snapshot() -> Configuration:
        return Configuration(
            tuple(states[1:]), tuple(memories[1:]), tuple(board)
        )

    def view_of(v: int) -> NodeView:
        return NodeView(v, graph.neighbors(v), n, BoardView(tuple(board)))

    def activation_round() -> None:
        # Simultaneous decisions on the same board snapshot.
        decisions = []
        for v in graph.nodes():
            if states[v] is not NodeState.AWAKE:
                continue
            if model.simultaneous:
                should = not board  # act(v, N, ∅, awake) = active
            else:
                should = bool(protocol.wants_to_activate(view_of(v)))
            decisions.append((v, should))
        for v, should in decisions:
            if should:
                states[v] = NodeState.ACTIVE
                # Narrative semantics: memory created at activation.
                memories[v] = protocol.message(view_of(v))

    configs.append(snapshot())  # C_0
    activation_round()
    configs.append(snapshot())  # C_1 — "after the first round"

    for writer in write_order:
        if not (1 <= writer <= n):
            raise ReplayError(f"no node {writer}")
        if writer in written:
            raise ReplayError(f"node {writer} already wrote")
        if states[writer] is not NodeState.ACTIVE:
            raise ReplayError(f"node {writer} is not active")
        if model.asynchronous:
            payload = memories[writer]
        else:
            # Synchronous right to change one's mind: recompute now.
            payload = protocol.message(view_of(writer))
            memories[writer] = payload
        board.append(payload)
        written.add(writer)
        states[writer] = NodeState.TERMINATED
        activation_round()
        configs.append(snapshot())

    return configs


def validate_run(
    graph: LabeledGraph,
    protocol: Protocol,
    model: ModelSpec,
    result: RunResult,
) -> list[str]:
    """Differentially validate an engine run against the reference
    semantics.  Returns human-readable violations (empty = valid)."""
    violations: list[str] = []
    try:
        configs = replay(graph, protocol, model, result.write_order)
    except ReplayError as exc:
        return [f"write order not realisable: {exc}"]

    final = configs[-1]

    # 1. Boards must agree payload-for-payload.
    engine_board = tuple(e.payload for e in result.board.entries)
    if engine_board != final.board:
        violations.append(
            f"board mismatch: engine {engine_board!r} vs reference {final.board!r}"
        )

    # 2. Success/corruption classification must agree.
    if result.success != final.is_successful:
        violations.append(
            f"termination mismatch: engine success={result.success}, "
            f"reference successful={final.is_successful}"
        )
    if result.corrupted and not final.is_corrupted:
        # The engine stops at the first activeless configuration; the
        # reference replay of the same prefix must also be final.
        violations.append("engine reported deadlock but reference has active nodes")

    # 3. Exactly one new message per post-activation configuration.
    for i in range(2, len(configs)):
        if len(configs[i].board) != len(configs[i - 1].board) + 1:
            violations.append(f"configuration {i} did not add exactly one message")

    # 4. Simultaneous models: nobody is awake after the first round.
    if model.simultaneous and len(configs) > 1:
        if any(s is NodeState.AWAKE for s in configs[1].states):
            violations.append("simultaneous model left a node awake after round 1")

    # 5. Asynchronous models: memories never change once non-ε.
    if model.asynchronous:
        for v in graph.nodes():
            seen: Optional[Payload] = _EPSILON
            for cfg in configs:
                mem = cfg.memory_of(v)
                if seen is _EPSILON:
                    seen = mem
                elif mem is not _EPSILON and mem != seen:
                    violations.append(
                        f"async node {v} changed its memory from {seen!r} to {mem!r}"
                    )
                    break

    # 6. Writers terminate, in order.
    for idx, writer in enumerate(result.write_order):
        cfg = configs[idx + 2] if idx + 2 < len(configs) else final
        if cfg.state_of(writer) is not NodeState.TERMINATED:
            violations.append(f"writer {writer} did not terminate after writing")

    return violations
