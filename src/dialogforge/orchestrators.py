"""Orchestrators: per-agent policies that inject instructions before a turn.

An orchestrator sees the dialog so far plus the partner's last utterance
and may return one instruction text to be placed in the agent's prompt
for the upcoming generation. Orchestrators compose in attachment order:
``agent | length_orch | mind_orch``. State is owned by the attached agent
and cleared on agent reset.

The exact instruction strings live in the MESSAGES catalog below so
golden tests stay stable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

from .agents import END_MARKER
from .dialog import Dialog
from .errors import ConfigError
from .flow import cosine, embed

if TYPE_CHECKING:
    from .agents import Agent

MESSAGES = {
    "continue": (
        "Do not end the conversation yet; keep it going with a relevant follow-up."
    ),
    "finish": (
        "Wrap up the conversation now: give one short closing utterance and "
        f'finish it with "{END_MARKER}".'
    ),
    "change_mind": (
        "Change your mind about your current position and make the change "
        "explicit in your next reply."
    ),
    "change_mind_reason": " The reason: {reason}.",
    "suggestions": (
        "Consider replying with one of these suggested responses, most relevant first:"
    ),
}


class Orchestrator:
    """Base class for all orchestrators.

    Subclasses implement ``instruct(dialog, utterance)`` and return a
    non-empty instruction text to intervene, or None to stay silent.
    ``utterance`` is the partner's last utterance, None on the agent's
    first move. The agent labels the instruct event with ``name``, which is
    the class name, and keeps the instruction in memory when ``persist`` is
    set. Override ``reset`` when keeping per-dialogue state.
    """

    def __init__(self, persist: bool = False):
        self.persist = persist
        self.agent: Agent | None = None

    @property
    def name(self) -> str:
        return type(self).__name__

    def bind(self, agent: "Agent") -> None:
        # One orchestrator instance belongs to one agent (state ownership).
        if self.agent is not None and self.agent is not agent:
            raise ConfigError(
                f"orchestrator {self.name!r} is already attached to agent "
                f"{self.agent.name!r}"
            )
        self.agent = agent

    def reset(self) -> None:
        pass

    def instruct(self, dialog: Dialog, utterance: str | None) -> str | None:
        raise NotImplementedError

    def _owner(self) -> "Agent":
        if self.agent is None:
            raise ConfigError(f"orchestrator {self.name!r} is not attached to an agent")
        return self.agent


class SimpleReflexOrchestrator(Orchestrator):
    """Fires a fixed instruction whenever a condition on the last utterance holds.

    The condition receives the empty string when there is no last utterance.
    """

    def __init__(
        self,
        condition: Callable[[str], bool],
        instruction: str,
        persist: bool = False,
    ):
        super().__init__(persist=persist)
        if not instruction:
            raise ConfigError("reflex instruction must be non-empty")
        self.condition = condition
        self.instruction = instruction

    def instruct(self, dialog: Dialog, utterance: str | None):
        if self.condition(utterance if utterance is not None else ""):
            return self.instruction
        return None


class LengthOrchestrator(Orchestrator):
    """Keeps dialog length inside [min_turns, max_turns].

    Below the minimum it unconditionally instructs the agent to keep the
    conversation going; at or above the maximum it instructs the agent to
    wrap up and emit the end marker; in between it stays silent.
    """

    def __init__(self, min_turns: int, max_turns: int):
        super().__init__()
        if min_turns <= 0 or max_turns <= 0:
            raise ConfigError("min_turns and max_turns must be positive")
        if min_turns > max_turns:
            raise ConfigError(f"min_turns {min_turns} exceeds max_turns {max_turns}")
        self.min_turns = min_turns
        self.max_turns = max_turns

    def instruct(self, dialog: Dialog, utterance: str | None):
        length = len(dialog)
        if length < self.min_turns:
            return MESSAGES["continue"]
        if length >= self.max_turns:
            return MESSAGES["finish"]
        return None


class ChangeMindOrchestrator(Orchestrator):
    """Randomly makes the agent change its mind, at most ``max_times`` per dialogue.

    A draw from the agent's seeded RNG happens on every turn, even once the
    budget is spent (draw then discard), so the RNG stream stays aligned
    across configurations and reproducibility tests.
    """

    def __init__(
        self,
        probability: float,
        reasons: list[str] | None = None,
        max_times: int = 1,
    ):
        super().__init__()
        if not 0 <= probability <= 1:
            raise ConfigError(f"probability must be in [0, 1], got {probability}")
        if max_times <= 0:
            raise ConfigError("max_times must be positive")
        self.probability = probability
        self.reasons = list(reasons) if reasons else []
        self.max_times = max_times
        self.fired = 0

    def reset(self) -> None:
        self.fired = 0

    def instruct(self, dialog: Dialog, utterance: str | None):
        rng = self._owner().rng
        draw = rng.random()
        if draw >= self.probability or self.fired >= self.max_times:
            return None
        self.fired += 1
        text = MESSAGES["change_mind"]
        if self.reasons:
            reason = rng.choice(self.reasons)
            text += MESSAGES["change_mind_reason"].format(reason=reason)
        return text


class SimpleResponseOrchestrator(Orchestrator):
    """Suggests candidate responses ranked by embedding similarity.

    Ranks the candidate list against the partner's last utterance by
    cosine similarity of hashed term-frequency embeddings (ties keep the
    candidate list order) and injects the top ``top_k`` as suggestions.
    Silent on the agent's first move.
    """

    def __init__(self, candidates: list[str], top_k: int | None = None):
        super().__init__()
        if not candidates:
            raise ConfigError("candidates must be non-empty")
        if top_k is None:
            top_k = min(3, len(candidates))
        if not 1 <= top_k <= len(candidates):
            raise ConfigError(f"top_k must be in [1, {len(candidates)}], got {top_k}")
        self.candidates = list(candidates)
        self.top_k = top_k
        self._vectors = [embed(c) for c in self.candidates]

    def instruct(self, dialog: Dialog, utterance: str | None):
        if utterance is None:
            return None
        ranked = self.rank(utterance)[: self.top_k]
        lines = [MESSAGES["suggestions"]]
        lines += [f"{i}. {text}" for i, text in enumerate(ranked, start=1)]
        return "\n".join(lines)

    def rank(self, utterance: str) -> list[str]:
        """Candidates ordered by similarity to ``utterance`` (best first)."""
        query = embed(utterance)
        return [c for c, _ in sorted(zip(self.candidates, self._vectors),
                                     key=lambda pair: -cosine(query, pair[1]))]


class InstructionListOrchestrator(Orchestrator):
    """Plays back a fixed plan of instructions keyed by the agent's own turn index.

    Index 0 is the agent's first utterance; indices count only the owning
    agent's moves, not the partner's.
    """

    def __init__(self, plan: Mapping[int, str], persist: bool = False):
        super().__init__(persist=persist)
        for index in plan:
            if index < 0:
                raise ConfigError(f"plan indices must be non-negative, got {index}")
        self.plan = dict(plan)

    def instruct(self, dialog: Dialog, utterance: str | None):
        name = self._owner().name
        own_turns = sum(1 for turn in dialog.turns if turn.speaker == name)
        return self.plan.get(own_turns)
