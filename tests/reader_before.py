"""The dialog reader as it was before records were checked a column at a
time: a copy of ``deserialize_dialog`` and its helpers, kept as the oracle of
``tests/test_reader.py``. It builds every turn and event through the public
constructors, whose ``__post_init__`` checks run on each, and then runs the
three passes of the old ``Dialog.validate``.
"""

from __future__ import annotations

import json
from itertools import pairwise
from typing import Any, Callable, Iterable

from dialogforge.dialog import FORMAT_VERSION, Dialog, Event, Turn
from dialogforge.errors import BadTurnLine, ConfigError, InvariantViolation, ParseError


def _is(value, kinds) -> bool:
    try:
        # bool is an int subclass: JSON true/false counts only where kinds is bool
        return isinstance(value, kinds) and (not isinstance(value, bool) or kinds is bool)
    except TypeError:  # isinstance() refuses list[T]; check each item against T
        return isinstance(value, list) and all(map(_is, value, kinds.__args__ * len(value)))


def _require(mapping: dict, key: str, kinds, where: str, error=ParseError):
    value = mapping.get(key)
    if not _is(value, kinds):
        raise error(f"{where}: missing or invalid {key!r} field")
    return value


def _optional(mapping: dict, key: str, kinds, where: str, error=ParseError, default=None):
    # null reads as absent only where the default is None
    value = mapping.get(key, default)
    if value is None:
        if default is None:
            return None
    elif _is(value, kinds):
        return value
    raise error(f"{where}: invalid {key!r} field")


def _loads(text: str, error: Callable[[str], Exception] = ValueError) -> Any:
    try:
        doc = json.loads(text)
        if "\\ud" in text or "\\uD" in text:  # in UTF-8 text, only such an escape makes one
            json.dumps(doc, ensure_ascii=False).encode("utf-8")  # UTF-8 cannot encode one
    except UnicodeEncodeError as exc:
        raise error(f"a string holds a lone surrogate, {exc.object[exc.start]!r}") from None
    except ValueError as exc:
        raise error(f"not valid JSON: {exc}") from exc
    return doc


def validate(dialog: Dialog) -> None:
    if any(b.timestamp < a.timestamp for a, b in pairwise(dialog.events)):
        raise InvariantViolation("event timestamps must be non-decreasing")
    utters = [e for e in dialog.events if e.action == "utter"]
    if len(utters) != len(dialog.turns):
        raise InvariantViolation(
            f"{len(dialog.turns)} turns but {len(utters)} utter events"
        )
    for i, (turn, event) in enumerate(zip(dialog.turns, utters)):
        if event.agent != turn.speaker or event.text != turn.text:
            raise InvariantViolation(f"turn {i} does not match its utter event")


def _utter(turn: Turn, timestamp: int) -> Event:
    return Event(turn.speaker, "utter", None, turn.text, timestamp)


def _synth_utter_events(turns: Iterable[Turn]) -> tuple[Event, ...]:
    return tuple(_utter(t, 0) for t in turns)


def deserialize_dialog(text: str, format: str = "structured") -> Dialog:
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(
                f"a string holds a lone surrogate, {exc.object[exc.start]!r}") from None
    if format == "structured":
        return _parse_structured(text)
    if format == "plain":
        return _parse_plain(text)
    raise ConfigError(f"unknown dialog format {format!r}")


def _parse_structured(text: str) -> Dialog:
    doc = _loads(text, ParseError)
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    version = _require(doc, "formatVersion", str, "dialog")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version!r}")
    raw_turns = _require(doc, "turns", list, "dialog")
    try:
        turns = [
            Turn(t["speaker"], t["text"])
            if type(t) is dict and type(t.get("speaker")) is str and type(t.get("text")) is str
            else _read_turn(t, i)
            for i, t in enumerate(raw_turns)
        ]
        raw_events = _optional(doc, "events", list, "dialog")
        if raw_events is None:
            events = _synth_utter_events(turns)
        else:
            events = [
                Event(e["agent"], e["action"], e.get("actionLabel"), e["text"], e["timestamp"])
                if type(e) is dict and type(e.get("agent")) is str
                and type(e.get("action")) is str and type(e.get("text")) is str
                and type(e.get("timestamp")) is int
                and (e.get("actionLabel") is None or type(e["actionLabel"]) is str)
                else _read_event(e, i)
                for i, e in enumerate(raw_events)
            ]
        dialog = Dialog(
            id=_optional(doc, "id", int, "dialog"),
            model=_optional(doc, "model", str, "dialog"),
            seed=_optional(doc, "seed", int, "dialog"),
            scenario=_optional(doc, "scenario", dict, "dialog"),
            personas=_optional(doc, "personas", dict, "dialog"),
            turns=turns,
            events=events,
        )
        validate(dialog)
    except InvariantViolation as exc:
        raise ParseError(str(exc)) from exc
    return dialog


def _read_turn(t: Any, i: int) -> Turn:
    if not isinstance(t, dict):
        raise ParseError(f"turn {i} must be an object")
    where = f"turn {i}"
    return Turn(speaker=_require(t, "speaker", str, where), text=_require(t, "text", str, where))


def _read_event(e: Any, i: int) -> Event:
    if not isinstance(e, dict):
        raise ParseError(f"event {i} must be an object")
    where = f"event {i}"
    return Event(
        agent=_require(e, "agent", str, where),
        action=_require(e, "action", str, where),
        action_label=_optional(e, "actionLabel", str, where),
        text=_require(e, "text", str, where),
        timestamp=_require(e, "timestamp", int, where),
    )


def _parse_plain(text: str) -> Dialog:
    turns = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        if not line:
            continue
        speaker, sep, utterance = line.partition(": ")
        if not sep or not speaker.strip():
            raise BadTurnLine(f"line {lineno} lacks a 'Speaker: ' prefix: {line!r}")
        turns.append(Turn(speaker=speaker, text=utterance))
    return Dialog(turns=tuple(turns), events=_synth_utter_events(turns))
