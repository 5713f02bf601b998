"""The whiteboard machine: models, protocols, adversaries, simulator."""

from .errors import MessageTooLarge, ProtocolViolation, SchedulerError, WhiteboardError
from .execution import Checkpoint, ExecutionState, replay_schedule
from .models import (
    ALL_MODELS,
    ASYNC,
    MODELS_BY_NAME,
    SIMASYNC,
    SIMSYNC,
    SYNC,
    ModelSpec,
    at_most_as_strong,
    lemma4_chain,
)
from .protocol import NodeView, Protocol
from .reference import Configuration, NodeState, replay, validate_run
from .schedulers import (
    DelayTargetScheduler,
    FifoScheduler,
    FixedOrderScheduler,
    LifoScheduler,
    MaxIdScheduler,
    MinIdScheduler,
    RandomScheduler,
    Scheduler,
    default_portfolio,
)
from .simulator import RunResult, all_executions, count_executions, run
from .whiteboard import BoardView, Entry, Whiteboard

__all__ = [
    "MessageTooLarge",
    "ProtocolViolation",
    "SchedulerError",
    "WhiteboardError",
    "Checkpoint",
    "ExecutionState",
    "replay_schedule",
    "ALL_MODELS",
    "ASYNC",
    "MODELS_BY_NAME",
    "SIMASYNC",
    "SIMSYNC",
    "SYNC",
    "ModelSpec",
    "at_most_as_strong",
    "lemma4_chain",
    "NodeView",
    "Protocol",
    "Configuration",
    "NodeState",
    "replay",
    "validate_run",
    "DelayTargetScheduler",
    "FifoScheduler",
    "FixedOrderScheduler",
    "LifoScheduler",
    "MaxIdScheduler",
    "MinIdScheduler",
    "RandomScheduler",
    "Scheduler",
    "default_portfolio",
    "RunResult",
    "all_executions",
    "count_executions",
    "run",
    "BoardView",
    "Entry",
    "Whiteboard",
]
