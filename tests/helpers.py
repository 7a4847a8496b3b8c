"""Shared test doubles and independent oracles.

The oracle implementations here (hashed term-frequency embedding, bigram
transition counting) are deliberately written from scratch in plain
Python, without touching the library's vector code paths, so they can
serve as an independent second route for the same answers.
"""

from __future__ import annotations

import math
import random

from dialogforge import Backend, Dialog, Message, SamplingParams
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
        dialog = Dialog(id=i)
        length = rng.choice([4, 6])
        for turn in range(length):
            if turn % 2 == 0:
                phrase = AGENT_PHRASES[turn // 2 % 3] if turn < 2 else rng.choice(AGENT_PHRASES)
                dialog = dialog.append_utterance("Agent", phrase, turn)
            else:
                phrase = CLIENT_PHRASES[turn // 2 % 3] if turn < 2 else rng.choice(CLIENT_PHRASES)
                dialog = dialog.append_utterance("Client", phrase, turn)
        dialogs.append(dialog)
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
