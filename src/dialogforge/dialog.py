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
import re
import sys
import threading
from dataclasses import FrozenInstanceError, dataclass, replace
from itertools import compress, pairwise, repeat
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Literal

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

Format = Literal["structured", "plain"]


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


# the __setattr__ and __delattr__ that frozen=True writes name the class that
# slots=True then replaces, so on a name that is not a field they raise TypeError
# (CPython 3.10 to 3.13); these raise FrozenInstanceError on any name, as on a field
def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


Turn.__setattr__ = Turn.__delattr__ = Event.__setattr__ = Event.__delattr__ = _frozen


@dataclass(frozen=True)
class Dialog:
    """A complete conversation: ordered turns plus an event audit trail.

    The subsequence of "utter" events always mirrors the turns list
    (same count, same speakers, same texts, same order); every mutation
    helper preserves that pairing. ``scenario`` and ``personas`` are
    free-form metadata maps carried through serialization untouched.
    """

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
        event = _utter(turn, self._clamp(timestamp))
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
        if any(b.timestamp < a.timestamp for a, b in pairwise(self.events)):
            raise InvariantViolation("event timestamps must be non-decreasing")
        utters = [e for e in self.events if e.action == "utter"]
        if len(utters) != len(self.turns):
            raise InvariantViolation(
                f"{len(self.turns)} turns but {len(utters)} utter events"
            )
        for i, (turn, event) in enumerate(zip(self.turns, utters)):
            if event.agent != turn.speaker or event.text != turn.text:
                raise InvariantViolation(f"turn {i} does not match its utter event")


def _utter(turn: Turn, timestamp: int) -> Event:
    """The utter event that mirrors ``turn`` in a dialog's event list."""
    return Event(turn.speaker, "utter", None, turn.text, timestamp)


def _synth_utter_events(turns: Iterable[Turn]) -> tuple[Event, ...]:
    # Timestamp 0 is the "unknown" sentinel for imported dialogs.
    return tuple(_utter(t, 0) for t in turns)


def _to_mapping(dialog: Dialog) -> dict[str, Any]:
    # Canonical field order; absent optionals serialize as null.
    return {
        "formatVersion": FORMAT_VERSION,
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


# in UTF-8 text only such an escape makes a lone surrogate
_SURROGATE_ESCAPE = re.compile(r"\\u[dD]")


def _loads(text: str, error: Callable[[str], Exception] = ValueError) -> Any:
    """``json.loads(text)``, raising ``error`` on bad JSON or a lone surrogate."""
    try:
        doc = json.loads(text)
        # one pass: a memchr to the first backslash, which rules out most texts,
        # and a search for the escape from there
        start = text.find("\\")
        if start >= 0 and _SURROGATE_ESCAPE.search(text, start):
            json.dumps(doc, ensure_ascii=False).encode("utf-8")  # UTF-8 cannot encode one
    except UnicodeEncodeError as exc:
        raise error(f"a string holds a lone surrogate, {exc.object[exc.start]!r}") from None
    except ValueError as exc:
        raise error(f"not valid JSON: {exc}") from exc
    return doc


def _read_json(path: Path, what: str, error=ParseError) -> dict[str, Any]:
    """The JSON object stored in ``path``; any other content raises ``error``."""
    try:
        data = _loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 errors
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{what} {path} must contain a JSON object")
    return data


def deserialize_dialog(text: str, format: Format = "structured") -> Dialog:
    """Parse a dialog from text.

    Structured input reconstructs every field and rejects unknown format
    versions. Plain input reconstructs turns only; utter events are
    synthesized with timestamp 0 ("unknown"). Text that holds a lone
    surrogate, raw or as a JSON escape, raises ParseError: UTF-8 cannot
    encode it, so the dialog could not be written back.
    """
    # a raw surrogate cannot come from decoding UTF-8, only from a str built in
    # Python; ASCII text, checked by one flag read, holds none
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


_METADATA = {"id": int, "model": str, "seed": int, "scenario": dict, "personas": dict}


def _parse_structured(text: str) -> Dialog:
    doc = _loads(text, ParseError)
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    version = _require(doc, "formatVersion", str, "dialog")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version!r}")
    raw_turns = _require(doc, "turns", list, "dialog")
    try:
        records = _checked_records(raw_turns, doc.get("events"))
        if records is None:  # some field breaks a rule: read item by item, which raises its error
            turns = [_read_turn(t, i) for i, t in enumerate(raw_turns)]
            raw_events = _optional(doc, "events", list, "dialog")
            events = (_synth_utter_events(turns) if raw_events is None
                      else [_read_event(e, i) for i, e in enumerate(raw_events)])
        else:
            turns, events = records
        metadata = {key: _optional(doc, key, kind, "dialog") for key, kind in _METADATA.items()}
        dialog = Dialog(**metadata, turns=turns, events=events)
        if records is None:
            dialog.validate()
    except InvariantViolation as exc:
        raise ParseError(str(exc)) from exc
    return dialog


def _records(cls: type, *columns: Iterable) -> list:
    """Instances of the slotted dataclass ``cls``, each field set from its column
    without running ``__post_init__``: for values the caller has checked."""
    records = list(map(object.__new__, repeat(cls, len(columns[0]))))
    for name, column in zip(cls.__slots__, columns):
        any(map(getattr(cls, name).__set__, records, column))  # each set returns None
    return records


def _checked_records(raw_turns: list, raw_events: Any) -> tuple[list, list] | None:
    """A document's turns and events, each rule of Turn, Event and Dialog.validate checked
    once, a column at a time; None if one is broken, and the item-by-item reader says which."""
    try:  # KeyError: a missing key; TypeError: a value of another JSON type
        speakers, texts = [list(map(itemgetter(key), raw_turns)) for key in ("speaker", "text")]
        texts = list(map(str.rstrip, texts, repeat("\n")))
        agents, actions, labels, says, stamps = columns = [list(map(itemgetter(key), raw_events))
            for key in ("agent", "action", "actionLabel", "text", "timestamp")]
        # JSON values have exact types, and JSON true is a bool, not an int
        if not (type(raw_events) is list and all(map(str.strip, speakers))
                and set(actions) <= set(ACTIONS) and set(map(type, agents + says)) <= {str}
                and set(map(type, stamps)) <= {int} and set(map(type, labels)) <= {str, type(None)}
                and all(compress(labels, map("instruct".__eq__, actions)))
                and stamps == sorted(stamps)):
            return None
        said = [agents, says] if actions.count("utter") == len(actions) else [
            list(compress(column, map("utter".__eq__, actions))) for column in (agents, says)]
        if said == [speakers, texts]:
            return _records(Turn, speakers, texts), _records(Event, *columns)
    except (KeyError, TypeError):
        pass
    return None


def _read_turn(t: Any, i: int) -> Turn:
    if not isinstance(t, dict):
        raise ParseError(f"turn {i} must be an object")
    where = f"turn {i}"
    return Turn(speaker=_require(t, "speaker", str, where), text=_require(t, "text", str, where))


def _read_event(e: Any, i: int) -> Event:
    if not isinstance(e, dict):
        raise ParseError(f"event {i} must be an object")
    where = f"event {i}"
    return Event(_require(e, "agent", str, where), _require(e, "action", str, where),
                 _optional(e, "actionLabel", str, where), _require(e, "text", str, where),
                 _require(e, "timestamp", int, where))


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
    ``os.replace``: a killed process leaves the old or the new content (no
    fsync, so this does not hold across a power loss). The temp file is named
    after the process and thread, so concurrent writers of one path each
    write their own."""
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
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
