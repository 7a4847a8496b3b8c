"""Seeded inputs: vocabulary, run specs and the dialog corpus.

Everything here is a pure function of the workload seed. The corpus is
written as canonical dialog JSON by this module itself, not by
dialogforge, so the inputs do not change when the library does.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from pathlib import Path

VOCAB_SIZE = 3000
ZIPF_EXPONENT = 1.1
SPEAKERS = ("User", "Assistant")
INTENTS_PER_SIDE = 6
INTENT_VOCAB = 150
REFLEX_WORD = "price"
CORPUS_STRUCTURE_SEED = 0

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "st", "tr", "pl")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")

PERSONAS = {
    "Customer": {
        "role": "customer at a hardware store",
        "personality": "curious and a little indecisive",
        "circumstances": "needs parts for a weekend repair",
    },
    "Clerk": {
        "role": "store clerk",
        "background": "ten years in the plumbing aisle",
        "rules": "never recommend a product that is out of stock",
    },
}

CLERK_CANDIDATES = [
    "We have that part in aisle four.",
    "The price includes the fittings.",
    "Would you like me to check the stock?",
    "That model comes with a two year warranty.",
    "I can order it for delivery tomorrow.",
]

CONTINUE_TEXT = "Do not end the conversation yet; keep it going with a relevant follow-up."


@functools.lru_cache(maxsize=8)
def vocabulary(seed: int, size: int = VOCAB_SIZE) -> tuple[str, ...]:
    """``size`` distinct pseudo-words in seeded order; Zipfian sampling
    treats the order as frequency rank."""
    rng = random.Random(f"vocab-{seed}")
    words: dict[str, None] = {REFLEX_WORD: None}
    while len(words) < size:
        syllables = rng.choice((1, 2, 2, 3, 3, 4))
        words[("".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables)))] = None
    ranked = list(words)
    rng.shuffle(ranked)
    return tuple(ranked)


def zipf_weights(n: int) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank**ZIPF_EXPONENT) for rank in range(1, n + 1)))


def _sentence(rng: random.Random, words: list[str]) -> str:
    return " ".join(words).capitalize() + rng.choice((".", ".", ".", "?", "!"))


def engine_spec(seed: int, max_turns: int, orchestrated: bool = True) -> dict:
    """Scripted run spec whose cycling script never says the end marker,
    so every dialog reaches ``max_turns``. All five orchestrator types are
    attached across the two personas."""
    rng = random.Random(f"engine-{seed}")
    vocab = vocabulary(seed)
    cum = zipf_weights(len(vocab))
    script = []
    for i in range(8):
        words = rng.choices(vocab, cum_weights=cum, k=rng.randint(8, 16))
        if i % 4 == 0:
            words[rng.randrange(len(words))] = REFLEX_WORD
        script.append(_sentence(rng, words))
    orchestrators = [
        {"type": "length", "agent": "Customer", "params": {"min": 20, "max": 1000}},
        {
            "type": "change_mind",
            "agent": "Customer",
            "params": {"probability": 0.02, "reasons": ["the budget changed", "a friend advised otherwise"], "maxTimes": 4},
        },
        {
            "type": "simple_reflex",
            "agent": "Clerk",
            "params": {"contains": REFLEX_WORD, "instruction": "State the price and any discount clearly."},
        },
        {"type": "simple_response", "agent": "Clerk", "params": {"candidates": CLERK_CANDIDATES, "topK": 2}},
        {
            "type": "instruction_list",
            "agent": "Clerk",
            "params": {"plan": {"0": "Greet the customer.", "25": "Mention the loyalty card.", "250": "Offer a discount.", "600": "Suggest a related item."}},
        },
    ]
    return {
        "backend": {"scripted": script, "cycle": True},
        "personas": PERSONAS,
        "orchestrators": orchestrators if orchestrated else [],
        "seed": seed,
        "maxTurns": max_turns,
    }


def wire_spec(base_url: str, seed: int, max_turns: int) -> dict:
    """Run spec against the mock server: the first speaker is told to wrap
    up from its tenth turn on, which the mock obeys."""
    return {
        "backend": {"baseUrl": base_url, "model": "mock-chat"},
        "personas": PERSONAS,
        "orchestrators": [
            {"type": "length", "agent": "Customer", "params": {"min": 4, "max": 10}},
            {
                "type": "change_mind",
                "agent": "Clerk",
                "params": {"probability": 0.3, "reasons": ["a colleague corrected the stock count"], "maxTimes": 1},
            },
        ],
        "seed": seed,
        "maxTurns": max_turns,
    }


def _fnv1a_bucket(word: str) -> int:
    # dialogforge.flow.embed's token hash (32-bit FNV-1a) modulo its 256 buckets
    value = 0x811C9DC5
    for byte in word.encode("utf-8"):
        value = ((value ^ byte) * 0x01000193) & 0xFFFFFFFF
    return value % 256


@functools.lru_cache(maxsize=None)
def _words_by_bucket() -> dict[int, tuple[str, ...]]:
    pool = vocabulary(-1, size=40_000)
    buckets: dict[int, list[str]] = {}
    for word in pool:
        buckets.setdefault(_fnv1a_bucket(word), []).append(word)
    return {bucket: tuple(words) for bucket, words in buckets.items()}


def surface_words(seed: int) -> dict[str, str]:
    """Map each word of the fixed corpus vocabulary to a seeded word that
    hashes to the same embedding bucket (distinct words stay distinct)."""
    rng = random.Random(f"surface-{seed}")
    pool = {bucket: list(words) for bucket, words in _words_by_bucket().items()}
    for words in pool.values():
        rng.shuffle(words)
    return {word: pool[_fnv1a_bucket(word)].pop() for word in vocabulary(CORPUS_STRUCTURE_SEED)}


class UtteranceSource:
    """Utterances of two speaker sides, each with a few intents whose
    words mix an intent-specific Zipfian vocabulary with the shared one.

    The corpus shape (lengths, intents, which word goes where) comes from
    a fixed seed; the workload seed only picks the surface words, each
    hashing to the embedding bucket of the word it replaces. The vectors
    k-means sees are then the same for every seed, so its iteration count,
    which varies two- to threefold between random corpora, does not turn
    into run-to-run spread.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(f"corpus-{CORPUS_STRUCTURE_SEED}")
        self.surface = surface_words(seed)
        self.vocab = vocabulary(CORPUS_STRUCTURE_SEED)
        self.cum = zipf_weights(len(self.vocab))
        self.intents = []
        for _ in SPEAKERS:
            side = []
            for _ in range(INTENTS_PER_SIDE):
                words = self.rng.sample(self.vocab[: VOCAB_SIZE // 2], INTENT_VOCAB)
                side.append((words, zipf_weights(INTENT_VOCAB)))
            self.intents.append(side)

    def utterance(self, side: int) -> str:
        rng = self.rng
        words, cum = rng.choice(self.intents[side])
        length = rng.randint(6, 14)
        own = rng.choices(words, cum_weights=cum, k=length)
        shared = rng.choices(self.vocab, cum_weights=self.cum, k=length)
        picked = [self.surface[o if rng.random() < 0.65 else s] for o, s in zip(own, shared)]
        return _sentence(rng, picked)


def utterances(seed: int, n: int) -> list[str]:
    source = UtteranceSource(seed)
    return [source.utterance(i % 2) for i in range(n)]


def write_corpus(directory: Path, seed: int, dialogs: int, mean_turns: int) -> dict[str, int]:
    """Write ``dialogs`` canonical dialog JSON files; return name -> turns."""
    directory.mkdir(parents=True, exist_ok=True)
    source = UtteranceSource(seed)
    rng = source.rng
    lengths = {}
    for index in range(dialogs):
        n_turns = rng.randint(mean_turns - 4, mean_turns + 4)
        turns, events, clock = [], [], itertools.count()
        for t in range(n_turns):
            speaker = SPEAKERS[t % 2]
            if speaker == "Assistant" and rng.random() < 0.05:
                events.append(_event(speaker, "instruct", "LengthOrchestrator", CONTINUE_TEXT, next(clock)))
            text = source.utterance(t % 2)
            turns.append({"speaker": speaker, "text": text})
            events.append(_event(speaker, "utter", None, text, next(clock)))
        doc = {
            "formatVersion": "1",
            "id": index,
            "model": "corpus",
            "seed": seed * 100_000 + index,
            "scenario": {"domain": "retail", "task": f"task-{index % 17}"},
            "personas": {s: {"name": s, "role": s.lower(), "background": None, "personality": None,
                             "circumstances": None, "rules": None, "language": None} for s in SPEAKERS},
            "turns": turns,
            "events": events,
        }
        name = f"dialog_{index:04d}.json"
        (directory / name).write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
        lengths[name] = n_turns
    return lengths


def _event(agent: str, action: str, label: str | None, text: str, timestamp: int) -> dict:
    return {"agent": agent, "action": action, "actionLabel": label, "text": text, "timestamp": timestamp}
