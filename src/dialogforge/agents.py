"""Persona profiles, prompt compilation, and the two-agent turn-taking engine.

An Agent owns its conversation memory (first entry is always the compiled
system prompt), an ordered orchestrator chain, and a seeded RNG. Agents
are single-threaded: one agent must not take part in two dialogues at
once, but distinct agents may run distinct dialogues concurrently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from .backends import Backend, Message, SamplingParams
from .dialog import Dialog, Event, Turn, _optional, _require, _utter
from .errors import ConfigError, DuplicateAgentName, InvariantViolation
from .seeding import derive_seed, entropy_seed

if TYPE_CHECKING:
    from .orchestrators import Orchestrator

END_MARKER = "[END]"

ROLE_PLAY_PREAMBLE = (
    "You are playing a character in a role-play conversation with one other participant."
)

STAGE_DIRECTIONS = (
    "Always stay in character. Reply with exactly one utterance per turn, "
    "without narration or stage directions. When the conversation has run its "
    f'course, reply with the end marker "{END_MARKER}" alone to finish it.'
)

# (attribute, prompt label) in fixed rendering order
_PERSONA_FIELDS = (
    ("name", "Name"),
    ("role", "Role"),
    ("background", "Background"),
    ("personality", "Personality"),
    ("circumstances", "Circumstances"),
    ("rules", "Rules"),
    ("language", "Language"),
)


@dataclass(frozen=True)
class Persona:
    """A named character profile compiled into a role-play system prompt."""

    name: str
    role: str | None = None
    background: str | None = None
    personality: str | None = None
    circumstances: str | None = None
    rules: str | None = None
    language: str | None = None

    def __post_init__(self):
        if not self.name.strip():
            raise InvariantViolation("persona name must be non-empty after trimming")

    def to_dict(self) -> dict[str, Any]:
        """Snapshot with every field present (None for unset); this is the
        shape embedded under ``personas`` in serialized dialogs."""
        return {attr: getattr(self, attr) for attr, _ in _PERSONA_FIELDS}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Persona":
        """Inverse of ``to_dict``: ``name`` is required, every field is a
        string or null, and keys that are not persona fields are rejected."""
        where = f"persona {data.get('name')!r}"
        unknown = set(data).difference(attr for attr, _ in _PERSONA_FIELDS)
        if unknown:
            raise ConfigError(f"{where} has unknown fields {sorted(unknown)}")
        _require(data, "name", str, where, ConfigError)
        return cls(**{attr: _optional(data, attr, str, where, ConfigError)
                      for attr, _ in _PERSONA_FIELDS})


def persona_prompt(persona: Persona, extra_instructions: str | None = None) -> str:
    """Compile a persona into its system prompt.

    Deterministic: a fixed preamble, one labeled line per non-empty field
    in fixed order, then the fixed stage directions (and any extra
    instructions appended by the caller).
    """
    lines = [ROLE_PLAY_PREAMBLE, "", "Your character:"]
    for attr, label in _PERSONA_FIELDS:
        value = getattr(persona, attr)
        if value:
            lines.append(f"{label}: {value}")
    lines += ["", STAGE_DIRECTIONS]
    if extra_instructions:
        lines.append(extra_instructions)
    return "\n".join(lines)


def _split_end_marker(utterance: str) -> tuple[bool, str]:
    # "ends with (or equals) the marker" terminates; marker mid-text does not.
    stripped = utterance.rstrip()
    if stripped.endswith(END_MARKER):
        return True, stripped[: -len(END_MARKER)].rstrip()
    return False, utterance


class Agent:
    """Role-plays a persona against a completion backend.

    The agent's ``name`` is its persona's name. ``memory[0]`` is always the
    compiled system prompt; ``turns`` counts the moves since ``reset``.
    Orchestrators are queried in attachment order before every generated
    utterance; attach them with the ``|`` operator. A fixed
    ``first_utterance`` is the first move, whether the agent opens or
    answers (no backend call, no orchestration for that move); it must not
    be empty, as memory keeps it as an assistant message. The RNG is
    seeded by ``reset``; a new agent starts from fresh entropy.
    """

    def __init__(
        self,
        backend: Backend,
        persona: Persona,
        first_utterance: str | None = None,
        extra_instructions: str | None = None,
    ):
        if first_utterance == "":
            raise ConfigError(f"persona {persona.name!r} has an empty first utterance")
        self.backend = backend
        self.persona = persona
        self.first_utterance = first_utterance
        self.orchestrators: list[Orchestrator] = []
        self._system_prompt = persona_prompt(persona, extra_instructions)
        self.seed: int = 0
        self.rng: random.Random = random.Random()
        self.memory: list[Message] = []
        self.turns: int = 0
        self.reset()

    @property
    def name(self) -> str:
        return self.persona.name

    def __or__(self, orchestrator: "Orchestrator") -> "Agent":
        orchestrator.bind(self)
        self.orchestrators.append(orchestrator)
        return self

    def reset(self, seed: int | None = None) -> "Agent":
        """Clear memory back to the system prompt and ``turns`` to 0, reseed
        the RNG, reset orchestrator state. A None seed draws fresh entropy."""
        self.seed = entropy_seed() if seed is None else seed
        self.rng = random.Random(self.seed)
        self.memory = [Message("system", self._system_prompt)]
        self.turns = 0
        for orchestrator in self.orchestrators:
            orchestrator.reset()
        return self

    def respond(self, incoming: str | None, turns: Sequence[Turn], events: list[Event]) -> str:
        """Take the agent's next move given the partner's last utterance and
        return the raw reply.

        The first move after ``reset`` is ``first_utterance`` if set. Every
        other move queries each orchestrator in order with ``turns``, the
        turns so far; each instruction text it fires is placed as a system
        message between memory and the incoming message for this generation
        only, and appended to ``events`` as an instruct event labelled with
        the orchestrator's class name and stamped with its position there.
        The incoming message, the reply and instructions from an
        orchestrator with ``persist`` set join memory. The turn and its utter
        event are the caller's job.
        """
        kept: list[Message] = []
        partner = [] if incoming is None else [Message("user", incoming)]
        if self.turns == 0 and self.first_utterance is not None:
            reply = self.first_utterance
        else:
            fired: list[Message] = []
            for orchestrator in self.orchestrators:
                text = orchestrator.instruct(turns, incoming)
                if text is None:
                    continue
                if not text:
                    raise InvariantViolation("instruction text must be non-empty")
                message = Message("system", text)
                fired.append(message)
                if orchestrator.persist:
                    kept.append(message)
                events.append(Event(self.name, "instruct", orchestrator.name, text, len(events)))
            params = SamplingParams(seed=self.seed)
            reply = self.backend.complete(self.memory + fired + partner, params)
        self.memory += kept + partner + [Message("assistant", reply)]
        self.turns += 1
        return reply

    def dialog_with(
        self,
        other: "Agent",
        id: int | None = None,
        seed: int | None = None,
        max_turns: int = 40,
    ) -> Dialog:
        """Run a strictly alternating conversation, this agent speaking first.

        Both agents are reset before the run and reseeded deterministically
        from the dialog seed and their position, so the whole run is a pure
        function of (backends, personas, orchestrator configs, seed). Each
        move is the speaker's ``respond``. The dialog ends when an utterance
        ends with the end marker (stripped from the stored turn) or after
        ``max_turns`` turns. An event's timestamp is its position in the
        dialog's event list, keeping serialized output byte-stable across
        reruns.
        """
        if max_turns <= 0:
            raise ConfigError("max_turns must be positive")
        Dialog(id=id)  # a bad id fails before the first move
        if self.name == other.name:
            raise DuplicateAgentName(f"both agents are named {self.name!r}")
        dialog_seed = entropy_seed() if seed is None else seed
        self.reset(derive_seed(dialog_seed, 0))
        other.reset(derive_seed(dialog_seed, 1))
        if self.backend.model == other.backend.model:
            model = self.backend.model
        else:
            model = f"{self.backend.model}+{other.backend.model}"

        turns: list[Turn] = []
        events: list[Event] = []
        speaker, listener = self, other
        incoming: str | None = None
        for _ in range(max_turns):
            ended, text = _split_end_marker(speaker.respond(incoming, turns, events))
            turns.append(Turn(speaker.name, text))
            events.append(_utter(turns[-1], len(events)))
            if ended:
                break
            incoming = turns[-1].text  # as stored: without trailing newlines
            speaker, listener = listener, speaker
        return Dialog(
            id=id,
            model=model,
            seed=dialog_seed,
            personas={
                self.name: self.persona.to_dict(),
                other.name: other.persona.to_dict(),
            },
            turns=turns,
            events=events,
        )
