"""Dialogue data model: turns, events, dialogs, serialization, rendering, file I/O.

All types here are immutable values; every operation that "modifies" a
Dialog returns a new one. The structured (JSON) format is lossless and
canonical; the plain text format ("Speaker: text" per line) is lossy by
design: it drops events, scenario metadata, and ids, and flattens any
newlines inside an utterance to single spaces.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Literal

from .errors import (
    BadTurnLine,
    ConfigError,
    EmptySpeaker,
    InvariantViolation,
    ParseError,
    UnserializableSpeaker,
)

FORMAT_VERSION = "1"

ACTIONS = ("utter", "instruct", "pick_suggestion")

Action = Literal["utter", "instruct", "pick_suggestion"]
Format = Literal["structured", "plain"]


@dataclass(frozen=True)
class Turn:
    """A single utterance: who spoke and what they said.

    The text is kept verbatim except that trailing newlines are stripped;
    the speaker must be non-empty after whitespace trimming.
    """

    speaker: str
    text: str = ""

    def __post_init__(self):
        if not self.speaker.strip():
            raise EmptySpeaker("turn speaker must be non-empty after trimming")
        object.__setattr__(self, "text", self.text.rstrip("\n"))


@dataclass(frozen=True)
class Event:
    """Timestamped record of an action in a dialog.

    ``action`` is one of "utter", "instruct", or "pick_suggestion".
    Instruct events carry the emitting orchestrator's name in
    ``action_label``; plain utterances leave it None.
    """

    agent: str
    action: str
    action_label: str | None
    text: str
    timestamp: int

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise InvariantViolation(f"unknown event action {self.action!r}")
        if self.action == "instruct" and not self.action_label:
            raise InvariantViolation("instruct events require an action label")


@dataclass(frozen=True)
class Dialog:
    """A complete conversation: ordered turns plus an event audit trail.

    The subsequence of "utter" events always mirrors the turns list
    (same count, same speakers, same texts, same order); every mutation
    helper preserves that pairing. ``scenario`` and ``personas`` are
    free-form metadata maps carried through serialization untouched.
    """

    format_version: str = FORMAT_VERSION
    id: int | None = None
    model: str | None = None
    seed: int | None = None
    scenario: dict[str, Any] | None = None
    personas: dict[str, dict[str, Any]] | None = None
    turns: tuple[Turn, ...] = ()
    events: tuple[Event, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "turns", tuple(self.turns))
        object.__setattr__(self, "events", tuple(self.events))
        if self.id is not None and self.id < 0:
            raise InvariantViolation("dialog id must be non-negative")

    def __len__(self) -> int:
        return len(self.turns)

    def __str__(self) -> str:
        return render_dialog(self, color=False)

    def append_utterance(self, speaker: str, text: str, timestamp: int = 0) -> "Dialog":
        """Return a new Dialog with one more turn and its paired utter event.

        Timestamps are clamped to be non-decreasing within the event list,
        so appending is monotonic by construction.
        """
        turn = Turn(speaker=speaker, text=text)
        event = Event(
            agent=speaker,
            action="utter",
            action_label=None,
            text=turn.text,
            timestamp=self._clamp(timestamp),
        )
        return replace(self, turns=self.turns + (turn,), events=self.events + (event,))

    def append_event(self, event: Event) -> "Dialog":
        """Return a new Dialog with ``event`` appended (timestamp clamped)."""
        event = replace(event, timestamp=self._clamp(event.timestamp))
        return replace(self, events=self.events + (event,))

    def _clamp(self, timestamp: int) -> int:
        if self.events:
            return max(timestamp, self.events[-1].timestamp)
        return timestamp

    def validate(self) -> None:
        """Check every Dialog invariant; raise InvariantViolation on breach."""
        if self.format_version != FORMAT_VERSION:
            raise InvariantViolation(
                f"unsupported format version {self.format_version!r}"
            )
        last = None
        for event in self.events:
            if last is not None and event.timestamp < last:
                raise InvariantViolation("event timestamps must be non-decreasing")
            last = event.timestamp
        utters = [e for e in self.events if e.action == "utter"]
        if len(utters) != len(self.turns):
            raise InvariantViolation(
                f"{len(self.turns)} turns but {len(utters)} utter events"
            )
        for i, (turn, event) in enumerate(zip(self.turns, utters)):
            if event.agent != turn.speaker or event.text != turn.text:
                raise InvariantViolation(f"turn {i} does not match its utter event")


def _synth_utter_events(turns: Iterable[Turn]) -> tuple[Event, ...]:
    # Timestamp 0 is the "unknown" sentinel for imported dialogs.
    return tuple(
        Event(agent=t.speaker, action="utter", action_label=None, text=t.text, timestamp=0)
        for t in turns
    )


def _to_mapping(dialog: Dialog) -> dict[str, Any]:
    # Canonical field order; absent optionals serialize as null.
    return {
        "formatVersion": dialog.format_version,
        "id": dialog.id,
        "model": dialog.model,
        "seed": dialog.seed,
        "scenario": dialog.scenario,
        "personas": dialog.personas,
        "turns": [{"speaker": t.speaker, "text": t.text} for t in dialog.turns],
        "events": [
            {
                "agent": e.agent,
                "action": e.action,
                "actionLabel": e.action_label,
                "text": e.text,
                "timestamp": e.timestamp,
            }
            for e in dialog.events
        ],
    }


def serialize_dialog(dialog: Dialog, format: Format = "structured") -> str:
    """Render a dialog as text.

    "structured" is the canonical lossless JSON document; the dialog is
    validated first, so what is written can be read back. "plain" is one
    "Speaker: text" line per turn; it drops events and metadata, flattens
    newlines inside utterances, and rejects speakers that the format
    cannot represent unambiguously.
    """
    if format == "structured":
        dialog.validate()
        return json.dumps(_to_mapping(dialog), indent=2, ensure_ascii=False) + "\n"
    if format == "plain":
        lines = []
        for turn in dialog.turns:
            if ": " in turn.speaker or "\n" in turn.speaker:
                raise UnserializableSpeaker(
                    f"speaker {turn.speaker!r} cannot appear in plain format"
                )
            lines.append(f"{turn.speaker}: {turn.text.replace(chr(10), ' ')}\n")
        return "".join(lines)
    raise ConfigError(f"unknown dialog format {format!r}")


# The one reader of typed JSON fields (dialog files, run specs, personas,
# scenarios, flowcharts): values are checked, never coerced, and each caller
# names the error class its input raises. kinds is a type, a tuple of types,
# or list[T] for a list whose items are all of type T.
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


def _read_json(path: Path, what: str, error=ParseError) -> dict[str, Any]:
    """The JSON object stored in ``path``; any other content raises ``error``."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 errors
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{what} {path} must contain a JSON object")
    return data


def deserialize_dialog(text: str, format: Format = "structured") -> Dialog:
    """Parse a dialog from text.

    Structured input reconstructs every field and rejects unknown format
    versions. Plain input reconstructs turns only; utter events are
    synthesized with timestamp 0 ("unknown").
    """
    if format == "structured":
        return _parse_structured(text)
    if format == "plain":
        return _parse_plain(text)
    raise ConfigError(f"unknown dialog format {format!r}")


def _parse_structured(text: str) -> Dialog:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    version = _require(doc, "formatVersion", str, "dialog")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version!r}")
    raw_turns = _require(doc, "turns", list, "dialog")
    try:
        turns = []
        for i, t in enumerate(raw_turns):
            if not isinstance(t, dict):
                raise ParseError(f"turn {i} must be an object")
            turns.append(
                Turn(
                    speaker=_require(t, "speaker", str, f"turn {i}"),
                    text=_require(t, "text", str, f"turn {i}"),
                )
            )
        raw_events = _optional(doc, "events", list, "dialog")
        if raw_events is None:
            events = list(_synth_utter_events(turns))
        else:
            events = []
            for i, e in enumerate(raw_events):
                if not isinstance(e, dict):
                    raise ParseError(f"event {i} must be an object")
                events.append(
                    Event(
                        agent=_require(e, "agent", str, f"event {i}"),
                        action=_require(e, "action", str, f"event {i}"),
                        action_label=_optional(e, "actionLabel", str, f"event {i}"),
                        text=_require(e, "text", str, f"event {i}"),
                        timestamp=_require(e, "timestamp", int, f"event {i}"),
                    )
                )
        dialog = Dialog(
            format_version=version,
            id=_optional(doc, "id", int, "dialog"),
            model=_optional(doc, "model", str, "dialog"),
            seed=_optional(doc, "seed", int, "dialog"),
            scenario=_optional(doc, "scenario", dict, "dialog"),
            personas=_optional(doc, "personas", dict, "dialog"),
            turns=tuple(turns),
            events=tuple(events),
        )
        dialog.validate()
    except InvariantViolation as exc:
        raise ParseError(str(exc)) from exc
    return dialog


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


# ---------------------------------------------------------------------------
# Console rendering
# ---------------------------------------------------------------------------

_RESET = "\x1b[0m"
_DIM = "\x1b[2m"
_BOLD = "\x1b[1m"
_PALETTE = ("\x1b[36m", "\x1b[33m", "\x1b[32m", "\x1b[35m", "\x1b[34m", "\x1b[31m")


def render_dialog(
    dialog: Dialog,
    show_scenario: bool = False,
    show_orchestration: bool = False,
    color: bool | None = None,
) -> str:
    """Render a dialog for the console with color-coded speakers.

    With both flags off the output is one ``Speaker: text`` entry per turn,
    as in the plain serialization, except that multi-line utterances keep
    their newlines and speakers containing ``": "`` are printed as they
    are (the plain format flattens the first and rejects the second).
    ``show_orchestration`` interleaves instruct events at the position they
    fired; ``show_scenario`` prefixes a metadata header. Styling is
    disabled automatically when stdout is not a terminal.
    """
    if color is None:
        color = sys.stdout.isatty()
    styles: dict[str, str] = {}

    def style(speaker: str) -> str:
        if speaker not in styles:
            styles[speaker] = _PALETTE[len(styles) % len(_PALETTE)]
        return styles[speaker]

    def paint(code: str, text: str) -> str:
        return f"{code}{text}{_RESET}" if color else text

    out = []
    if show_scenario and dialog.scenario is not None:
        out.append(paint(_BOLD, "--- scenario ---") + "\n")
        for key, value in dialog.scenario.items():
            out.append(paint(_DIM, f"{key}: {value}") + "\n")
        out.append(paint(_BOLD, "---") + "\n")
    if show_orchestration and dialog.events:
        for event in dialog.events:
            if event.action == "utter":
                out.append(f"{paint(style(event.agent), event.agent)}: {event.text}\n")
            else:
                label = event.action_label or event.action
                out.append(paint(_DIM, f"  [{label} -> {event.agent}] {event.text}") + "\n")
    else:
        for turn in dialog.turns:
            out.append(f"{paint(style(turn.speaker), turn.speaker)}: {turn.text}\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# File I/O (format dispatched on extension: .json structured, .txt plain)
# ---------------------------------------------------------------------------

_EXTENSIONS: dict[str, Format] = {".json": "structured", ".txt": "plain"}


def _format_for(path: Path) -> Format:
    try:
        return _EXTENSIONS[path.suffix.lower()]
    except KeyError:
        raise ConfigError(
            f"cannot infer dialog format from extension {path.suffix!r} (use .json or .txt)"
        ) from None


def write_text_atomic(path: Path, text: str) -> None:
    """Write UTF-8 text through a temp file in the target directory and
    ``os.replace``, so the target holds either its old or its new content."""
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temp.write_text(text, encoding="utf-8")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_dialog_file(dialog: Dialog, path: str | Path) -> Path:
    """Write a dialog to disk, picking the format from the file extension."""
    path = Path(path)
    write_text_atomic(path, serialize_dialog(dialog, _format_for(path)))
    return path


def read_dialog_file(path: str | Path) -> Dialog:
    """Load a dialog from disk, picking the format from the file extension.

    Content that is not UTF-8 raises ParseError; OSError passes through.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read dialog {path}: {exc}") from exc
    return deserialize_dialog(text, _format_for(path))
