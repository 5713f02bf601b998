"""Pluggable scoring: what "bad for the protocol" means to a search.

Greedy and beam searches used to hard-code one badness measure (bits
just written / board maxima).  A :class:`ScoreHook` makes the measure a
policy object a protocol author can swap — the ROADMAP's "plug
domain-specific badness into the same search harness" item — without
touching the search mechanics:

* :meth:`ScoreHook.step_score` rates one freshly applied write event
  (greedy's one-step lookahead; higher = more adversarial);
* :meth:`ScoreHook.prefix_score` rates a whole schedule prefix (beam's
  frontier ranking; lexicographic tuple, higher = more adversarial).

Hooks are identified by a primitive ``name`` and must carry only
primitive construction attributes, so a strategy configured with a hook
still fingerprints deterministically in campaign stores (the PR-4
invariant: compound attributes contribute their class name; the
behavioural knob rides along as the strategy's primitive ``score_name``
attribute).  The builtin hooks live in :data:`SCORE_HOOKS` and are
addressable from the CLI (``stress --score``).
"""

from __future__ import annotations

from typing import Callable, Union

from ..core.execution import ExecutionState

__all__ = [
    "ScoreHook",
    "BitsGreedyScore",
    "DeadlockFirstScore",
    "DecodeFailureScore",
    "SCORE_HOOKS",
    "register_score_hook",
    "resolve_score",
]


class ScoreHook:
    """Strategy-independent badness measure over execution states.

    Subclasses override one or both methods; the defaults reproduce the
    historical hard-coded behaviour (bits-greedy).  Implementations
    must be deterministic, side-effect free on the state, and picklable
    (stress plans cross process boundaries).
    """

    name: str = "score"

    def step_score(self, state: ExecutionState) -> float:
        """Badness of the *last applied event* (the state is the child
        configuration just after it).  Higher is worse for the protocol;
        greedy descents may negate it for their deferring polarity.
        Reads ``last_event_bits`` rather than the board tail because a
        crash or loss fault event leaves the board untouched."""
        return state.last_event_bits

    def prefix_score(self, state: ExecutionState) -> tuple:
        """Badness of the whole prefix, as a lexicographic tuple;
        beam keeps the ``width`` highest."""
        board = state.board
        return (board.max_bits(), board.total_bits())


class BitsGreedyScore(ScoreHook):
    """The default: maximise message bits (exactly the pre-hook
    behaviour of greedy and beam, pinned by the witness-identity
    tests)."""

    name = "bits-greedy"


class DeadlockFirstScore(ScoreHook):
    """Starvation first: prefer children that leave the fewest
    schedulable candidates (the deadlock seeker's child ordering as a
    score), with bits as the tiebreak."""

    name = "deadlock-first"

    def step_score(self, state: ExecutionState) -> float:
        # A candidate-free non-terminal child is a deadlock — the
        # searches already short-circuit on state.deadlocked, so the
        # score only has to steer towards starvation.
        n = state.n
        return (n - len(state.write_candidates)) * (n + 1) + min(
            state.last_event_bits, n
        )

    def prefix_score(self, state: ExecutionState) -> tuple:
        board = state.board
        return (-len(state.write_candidates), board.max_bits(),
                board.total_bits())


class DecodeFailureScore(ScoreHook):
    """Hunt configurations whose board the protocol cannot decode.

    Probes ``protocol.output`` on the current (possibly partial) board;
    an exception — e.g. a sketch whose ℓ₀-samplers all fail — is the
    jackpot and dominates any bit count.  Decode attempts cost real
    time, so this hook is opt-in (``stress --score decode-failure``).
    """

    name = "decode-failure"

    def _decodes(self, state: ExecutionState) -> bool:
        try:
            state.proto.output(state.board_view(), state.n)
        except Exception:
            return False
        return True

    def step_score(self, state: ExecutionState) -> float:
        fails = not self._decodes(state)
        return (1 << 20 if fails else 0) + state.last_event_bits

    def prefix_score(self, state: ExecutionState) -> tuple:
        board = state.board
        return (0 if self._decodes(state) else 1, board.max_bits(),
                board.total_bits())


SCORE_HOOKS: dict[str, Callable[[], ScoreHook]] = {
    BitsGreedyScore.name: BitsGreedyScore,
    DeadlockFirstScore.name: DeadlockFirstScore,
    DecodeFailureScore.name: DecodeFailureScore,
}


def register_score_hook(factory: Callable[[], ScoreHook],
                        name: Union[None, str] = None) -> str:
    """Register a protocol-supplied hook under a primitive name.

    ``name`` defaults to ``factory().name`` (probing one instance).  The
    registration is idempotent for the same factory; a *different*
    factory under an existing name raises — names are fingerprinted into
    campaign stores, so silently rebinding one would alias distinct
    behaviours.  Returns the registered name so census wiring can thread
    it straight into ``score_name`` knobs.
    """
    hook_name = name if name is not None else factory().name
    existing = SCORE_HOOKS.get(hook_name)
    if existing is not None and existing is not factory:
        raise ValueError(
            f"score hook name {hook_name!r} is already registered to "
            f"{existing!r}"
        )
    SCORE_HOOKS[hook_name] = factory
    return hook_name


def resolve_score(score: Union[None, str, ScoreHook]) -> ScoreHook:
    """A hook instance from a name, an instance, or ``None`` (default
    bits-greedy); unknown names raise with the known ones listed."""
    if score is None:
        return BitsGreedyScore()
    if isinstance(score, ScoreHook):
        return score
    try:
        return SCORE_HOOKS[score]()
    except KeyError:
        known = ", ".join(sorted(SCORE_HOOKS))
        raise ValueError(
            f"unknown score hook {score!r}; known hooks: {known}"
        ) from None
