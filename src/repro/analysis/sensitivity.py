"""Adversary-sensitivity analysis.

The adversary controls the write order; protocols differ sharply in how
much that control leaks into the observable outcome:

* Theorem 2's BUILD is *output-invariant*: SIMASYNC messages are fixed
  before any write, so every schedule yields the same reconstruction.
* Theorem 7/10's BFS protocols are output-invariant by a subtler
  mechanism — the layer certificates serialise the schedule's freedom
  away (the canonical forest is schedule-independent even though the
  write order is not).
* Theorem 5's MIS is *output-variant by design*: the greedy set depends
  on who the adversary favours, and correctness is a property of the
  whole output family.

:func:`analyze` quantifies this per protocol: number of distinct outputs,
distinct boards and bit-cost spread across a schedule sample (or, for
small inputs, across *all* schedules).  The numbers feed the
adversary-sensitivity benchmark (E14) and make a nice lens on what the
four models actually buy.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Optional

from ..graphs.labeled_graph import LabeledGraph
from ..core.models import ModelSpec
from ..core.protocol import Protocol
from ..core.schedulers import Scheduler, default_portfolio
from ..core.simulator import all_executions, run

__all__ = ["SensitivityReport", "analyze"]


def _freeze(value: Any) -> Any:
    """Make an output hashable for counting distinct outcomes.

    Structure-aware: dicts and dataclasses (e.g.
    :class:`~repro.graphs.properties.BfsForest`) are frozen by sorted
    content, so two equal-but-differently-ordered outputs count as one.
    """
    import dataclasses

    try:
        hash(value)
        return value
    except TypeError:
        pass
    if isinstance(value, dict):
        return (
            "dict",
            tuple(sorted(((k, _freeze(v)) for k, v in value.items()), key=repr)),
        )
    if isinstance(value, (set, frozenset)):
        return ("set", frozenset(_freeze(x) for x in value))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_freeze(x) for x in value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, _freeze(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    return repr(value)


@dataclass(frozen=True)
class SensitivityReport:
    """How much the adversary influenced a protocol on one input."""

    protocol_name: str
    model_name: str
    executions: int
    exhaustive: bool
    distinct_outputs: int
    distinct_boards: int
    distinct_write_orders: int
    min_total_bits: int
    max_total_bits: int
    deadlocks: int
    most_common_output: Any

    @property
    def output_invariant(self) -> bool:
        return self.distinct_outputs <= 1

    @property
    def board_invariant(self) -> bool:
        return self.distinct_boards <= 1

    def summary(self) -> str:
        kind = "exhaustive" if self.exhaustive else "sampled"
        return (
            f"{self.protocol_name} / {self.model_name}: "
            f"{self.distinct_outputs} output(s), {self.distinct_boards} "
            f"board(s), {self.distinct_write_orders} order(s) over "
            f"{self.executions} {kind} runs; board bits in "
            f"[{self.min_total_bits}, {self.max_total_bits}]; "
            f"{self.deadlocks} deadlock(s)"
        )


def analyze(
    graph: LabeledGraph,
    protocol: Protocol,
    model: ModelSpec,
    schedulers: Optional[Sequence[Scheduler]] = None,
    exhaustive_threshold: int = 5,
    limit: Optional[int] = 2000,
) -> SensitivityReport:
    """Measure schedule sensitivity of ``protocol`` on one input."""
    if graph.n <= exhaustive_threshold:
        runs = list(
            all_executions(graph, protocol, model, limit=limit)
        )
        exhaustive = True
    else:
        scheds = list(schedulers) if schedulers is not None else default_portfolio(
            tuple(range(8))
        )
        runs = [run(graph, protocol, model, s) for s in scheds]
        exhaustive = False

    outputs = Counter()
    representatives: dict[Any, Any] = {}
    boards = set()
    orders = set()
    bits = []
    deadlocks = 0
    for r in runs:
        orders.add(r.write_order)
        if r.corrupted:
            deadlocks += 1
            continue
        key = _freeze(r.output)
        outputs[key] += 1
        representatives.setdefault(key, r.output)
        boards.add(tuple(e.payload for e in r.board.entries))
        bits.append(r.total_bits)

    return SensitivityReport(
        protocol_name=protocol.name,
        model_name=model.name,
        executions=len(runs),
        exhaustive=exhaustive,
        distinct_outputs=len(outputs),
        distinct_boards=len(boards),
        distinct_write_orders=len(orders),
        min_total_bits=min(bits) if bits else 0,
        max_total_bits=max(bits) if bits else 0,
        deadlocks=deadlocks,
        most_common_output=(
            representatives[outputs.most_common(1)[0][0]] if outputs else None
        ),
    )
