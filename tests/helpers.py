"""Shared test doubles, independent oracles and an in-process CLI invoker.

The oracle implementations here (hashed term-frequency embedding, bigram
transition counting) are deliberately written from scratch in plain
Python, without touching the library's vector code paths, so they can
serve as an independent second route for the same answers.
"""

from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from dialogforge import Backend, Dialog, Event, Message, SamplingParams, Turn
from dialogforge.orchestrators import MESSAGES

FINISH_TEXT = MESSAGES["finish"]
CONTINUE_TEXT = MESSAGES["continue"]


class ObedientBackend(Backend):
    """Keeps talking forever unless instructed to finish, then ends."""

    model = "obedient"

    def _complete(self, messages: list[Message], params: SamplingParams) -> str:
        if any(m.role == "system" and FINISH_TEXT in m.content for m in messages):
            return "Alright, goodbye! [END]"
        return "Let me tell you more about that."


class EagerBackend(Backend):
    """Tries to end immediately unless instructed to keep going."""

    model = "eager"

    def _complete(self, messages: list[Message], params: SamplingParams) -> str:
        if any(m.role == "system" and FINISH_TEXT in m.content for m in messages):
            return "Okay, wrapping up now. [END]"
        if any(m.role == "system" and CONTINUE_TEXT in m.content for m in messages):
            return "Sure, happy to keep chatting."
        return "I think we are done here. [END]"


class _Capture(io.StringIO):
    """A text stream that also copies each write to ``both``, in write order."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved in write order
    exception: BaseException | None  # a non-zero SystemExit, or an uncaught exception


def invoke(main: Callable[..., None], args: list[str]) -> Result:
    """Run ``main(args=args)`` in this process with stdout and stderr captured."""
    both = io.StringIO()
    out, err = _Capture(both), _Capture(both)
    exception: BaseException | None = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(args=args)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
    return Result(code, out.getvalue(), err.getvalue(), both.getvalue(), exception)


def dialog_from(*turns: tuple[str, str], **metadata) -> Dialog:
    """A dialog of ``(speaker, text)`` turns, each paired with its utter event,
    which is stamped with its position; ``metadata`` sets the other fields."""
    records = [Turn(speaker, text) for speaker, text in turns]
    events = [Event(t.speaker, "utter", None, t.text, i) for i, t in enumerate(records)]
    return Dialog(**metadata, turns=records, events=events)


def respond(agent, incoming: str | None = "hi") -> tuple[str, list]:
    """One move of ``agent`` with no turns so far: its reply and the
    instruct events the move appended."""
    events: list = []
    return agent.respond(incoming, [], events), events


# ---------------------------------------------------------------------------
# Independent hashed-TF embedding oracle (dict-based, no numpy)
# ---------------------------------------------------------------------------

def oracle_embed(text: str) -> dict[int, float]:
    counts: dict[int, float] = {}
    token = ""
    for ch in text.lower() + " ":
        if ch.isascii() and (ch.isalpha() or ch.isdigit()):
            token += ch
            continue
        if token:
            h = 0x811C9DC5
            for b in token.encode("utf-8"):
                h = ((h ^ b) * 0x01000193) % 2**32
            counts[h % 256] = counts.get(h % 256, 0.0) + 1.0
            token = ""
    norm = math.sqrt(sum(v * v for v in counts.values()))
    if norm:
        counts = {k: v / norm for k, v in counts.items()}
    return counts


def oracle_cosine(a: dict[int, float], b: dict[int, float]) -> float:
    if not a or not b:
        return 0.0
    dot = sum(v * b.get(k, 0.0) for k, v in a.items())
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    return dot / (na * nb)


# ---------------------------------------------------------------------------
# Fixture corpus for flow-graph tests: scripted action phrases per side
# ---------------------------------------------------------------------------

AGENT_PHRASES = [
    "hello how can I help you today",
    "what kind of account would you like",
    "your account is ready to use",
]
CLIENT_PHRASES = [
    "I want to open an account",
    "a savings account please",
    "thank you very much goodbye",
]


def build_action_corpus(n_dialogs: int = 10, seed: int = 42) -> list[Dialog]:
    """Deterministic corpus where every utterance is one of three phrases per side."""
    rng = random.Random(seed)
    dialogs = []
    for i in range(n_dialogs):
        length = rng.choice([4, 6])
        turns = []
        for turn in range(length):
            if turn % 2 == 0:
                phrase = AGENT_PHRASES[turn // 2 % 3] if turn < 2 else rng.choice(AGENT_PHRASES)
                turns.append(("Agent", phrase))
            else:
                phrase = CLIENT_PHRASES[turn // 2 % 3] if turn < 2 else rng.choice(CLIENT_PHRASES)
                turns.append(("Client", phrase))
        dialogs.append(dialog_from(*turns, id=i))
    return dialogs


def bigram_transition_counts(dialogs: list[Dialog]) -> dict[tuple, int]:
    """Independent transition counting keyed by (speaker, text) pairs.

    START and END are represented as ("", "START") and ("", "END").
    """
    counts: dict[tuple, int] = {}
    for dialog in dialogs:
        path = [("", "START")]
        path += [(turn.speaker, turn.text) for turn in dialog.turns]
        path.append(("", "END"))
        for src, dst in zip(path, path[1:]):
            counts[(src, dst)] = counts.get((src, dst), 0) + 1
    return counts
