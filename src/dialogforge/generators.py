"""High-level dialogue generators.

Two paths: ``generate_dialog`` asks the backend for a whole conversation
in one completion and parses it against a fixed JSON schema (one repair
re-ask on violation); ``generate_persona_dialog`` builds two role-play
agents and lets them converse turn by turn.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .agents import Agent, Persona
from .backends import Backend, Message, SamplingParams
from .dialog import Dialog, Turn, _require, _synth_utter_events
from .errors import InvariantViolation, SchemaViolation
from .seeding import entropy_seed

SCHEMA_PROMPT = (
    "You write synthetic conversations. Respond with a JSON array only: no prose, "
    "no code fences. Each array element is an object with exactly two string "
    'fields, "speaker" and "text". The only allowed speaker values are {a} and '
    "{b}; start with {a} and alternate."
)

FIX_PROMPT = (
    "That was not valid. Respond again with only the JSON array of "
    '{"speaker", "text"} objects, using only the allowed speaker values.'
)

GREETING_CLAUSE = "Begin the conversation with a short, friendly greeting."


@dataclass(frozen=True)
class GenerationBrief:
    """What to generate: free-text details plus the two speaker labels."""

    details: str
    speaker_a: str
    speaker_b: str

    def __post_init__(self):
        if not self.details.strip():
            raise InvariantViolation("brief details must be non-empty")
        if not self.speaker_a.strip() or not self.speaker_b.strip():
            raise InvariantViolation("speaker labels must be non-empty")
        if self.speaker_a == self.speaker_b:
            raise InvariantViolation("speaker labels must be distinct")


def _strip_fences(text: str) -> str:
    text = text.strip()
    if text.startswith("```"):
        lines = text.split("\n")
        if lines[-1].strip().startswith("```"):
            lines = lines[1:-1]
        else:
            lines = lines[1:]
        text = "\n".join(lines).strip()
    return text


def _parse_turns(completion: str, brief: GenerationBrief) -> list[Turn]:
    allowed = {brief.speaker_a, brief.speaker_b}
    violation = functools.partial(SchemaViolation, raw=completion)
    try:
        doc = json.loads(_strip_fences(completion))
    except json.JSONDecodeError as exc:
        raise violation(f"completion is not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise violation("completion must be a JSON array")
    turns = []
    for i, item in enumerate(doc):
        where = f"element {i}"
        if not isinstance(item, dict):
            raise violation(f"{where} is not a {{speaker, text}} object")
        speaker = _require(item, "speaker", str, where, violation)
        text = _require(item, "text", str, where, violation)
        if speaker not in allowed:
            raise violation(f"{where} has off-schema speaker {speaker!r}")
        turns.append(Turn(speaker=speaker, text=text))
    return turns


def generate_dialog(
    backend: Backend,
    brief: GenerationBrief,
    seed: int | None = None,
) -> Dialog:
    """Generate one whole dialog from a textual brief in a single completion.

    The completion must be a JSON array of {speaker, text} objects using
    only the brief's speaker labels. On a malformed completion the backend
    gets exactly one repair re-ask before SchemaViolation is raised (the
    exception carries the raw completion). Model and seed are always
    stamped on the result.
    """
    if seed is None:
        seed = entropy_seed()
    params = SamplingParams(seed=seed)
    system = SCHEMA_PROMPT.format(a=json.dumps(brief.speaker_a), b=json.dumps(brief.speaker_b))
    messages = [Message("system", system), Message("user", brief.details)]
    completion = backend.complete(messages, params)
    try:
        turns = _parse_turns(completion, brief)
    except SchemaViolation:
        messages = messages + [Message("assistant", completion), Message("user", FIX_PROMPT)]
        completion = backend.complete(messages, params)
        turns = _parse_turns(completion, brief)
    return Dialog(model=backend.model, seed=seed, turns=tuple(turns),
                  events=_synth_utter_events(turns))


def generate_persona_dialog(
    backend: Backend,
    persona_a: Persona,
    persona_b: Persona,
    seed: int | None = None,
    id: int | None = None,
    max_turns: int = 40,
) -> Dialog:
    """Generate a dialog by letting two persona agents converse.

    Both personas are compiled into role-play system prompts; the
    initiating agent (persona_a) is additionally instructed to begin with
    a greeting. The result carries both persona snapshots plus model and
    seed metadata.
    """
    initiator = Agent(backend, persona_a, extra_instructions=GREETING_CLAUSE)
    responder = Agent(backend, persona_b)
    return initiator.dialog_with(responder, id=id, seed=seed, max_turns=max_turns)
