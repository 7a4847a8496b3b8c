from __future__ import annotations

import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from dialogforge import Dialog, Event, Turn
from helpers import invoke

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def star_root() -> Path:
    return FIXTURES / "star"


@pytest.fixture
def runner():
    """``runner.invoke(main, args)`` runs the CLI in this process (see helpers.invoke)."""
    return SimpleNamespace(invoke=invoke)


def random_dialog(rng: random.Random, plain_safe: bool = True) -> Dialog:
    """A random valid Dialog: consistent turn/event pairing, random metadata.

    With plain_safe (the default) speakers and texts stay representable in
    the plain format (single line, no ': ' in speakers).
    """
    speakers = rng.sample(["Alice", "Bob", "Carol", "Dave", "Support agent"], k=2)
    words = ["hello", "refund", "coffee", "sure", "précisément", "ok?", "no.", "…"]
    metadata = dict(
        id=rng.choice([None, rng.randrange(1000)]),
        model=rng.choice([None, "scripted", "test-model"]),
        seed=rng.choice([None, rng.randrange(2**31)]),
        scenario=rng.choice([None, {"topic": "coffee order", "location": "cafe"}]),
        personas=rng.choice([None, {"Alice": {"name": "Alice", "role": "barista"}}]),
    )
    turns, events = [], []
    ts = 0
    for i in range(rng.randrange(0, 8)):
        text = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 5)))
        if not plain_safe and rng.random() < 0.3:
            text += "\nsecond line"
        if rng.random() < 0.25:
            events.append(Event(speakers[i % 2], "instruct", "TestOrchestrator",
                                "do something specific", ts))
            ts += 1
        turns.append(Turn(speakers[i % 2], text))
        events.append(Event(speakers[i % 2], "utter", None, text, ts))
        ts += rng.randrange(0, 3)
    return Dialog(**metadata, turns=turns, events=events)
