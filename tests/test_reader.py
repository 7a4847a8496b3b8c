"""The dialog reader against copies of the readers it replaced: the
field-by-field reader below, and the one-pass reader in ``reader_before``
that built every record through its constructor. On valid documents, on
documents with fields of other JSON types and on documents that break a rule
of Turn, Event or Dialog.validate, each pair returns equal dialogs, or raises
the same exception class with the same message.
"""

from __future__ import annotations

import copy
import json
import random

import hypothesis.errors
import pytest
from hypothesis import given, settings, strategies as st

import reader_before
from conftest import random_dialog
from dialogforge.dialog import (
    FORMAT_VERSION,
    Dialog,
    Event,
    Turn,
    _loads,
    _optional,
    _require,
    _synth_utter_events,
    _to_mapping,
    deserialize_dialog,
)
from dialogforge.errors import InvariantViolation, ParseError


def reference_parse_structured(text: str) -> Dialog:
    """The structured reader as it was before the one-pass reader: every
    field of every turn and event read through ``_require``/``_optional``."""
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


# values of every JSON type, and strings the dialog model treats specially:
# blank speakers, event actions, trailing newlines
VALUES = [None, True, False, 0, 1, -1, 7, 2.5, "", " ", "A", "B", "utter", "instruct",
          "pick_suggestion", "Hi\n", "x", [], [1], ["a"], {}, {"speaker": "A"},
          {"speaker": "A", "text": "x"}]
MISSING = object()  # a corruption that deletes the key


def _paths(value, prefix=()):
    """Every key path into ``value``, except inside scenario and personas."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        path = prefix + (key,)
        yield path
        if isinstance(item, (dict, list)) and path[0] not in ("scenario", "personas"):
            yield from _paths(item, path)


@st.composite
def documents(draw):
    """A valid dialog document, sometimes without events or with a missing
    optional field, then with up to three fields replaced or deleted."""
    dialog = random_dialog(random.Random(draw(st.integers(0, 2**32))),
                           plain_safe=draw(st.booleans()))
    doc = json.loads(json.dumps(_to_mapping(dialog)))
    for key in draw(st.lists(st.sampled_from(["events", "id", "model", "scenario"]),
                             max_size=2)):
        doc.pop(key, None)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = draw(st.sampled_from([*VALUES, MISSING]))
        if value is MISSING:
            if isinstance(parent, dict):
                del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return doc


def outcome(parse, text: str):
    try:
        return "ok", parse(text)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


@settings(max_examples=400)
@given(documents())
def test_one_pass_reader_matches_field_by_field_reader(doc):
    text = json.dumps(doc)
    assert outcome(deserialize_dialog, text) == outcome(reference_parse_structured, text)


@given(st.sampled_from([[], [1], "[]", 3, '{"formatVersion": "1"}', "nope", "{}"]))
def test_malformed_documents_match(value):
    text = value if isinstance(value, str) else json.dumps(value)
    assert outcome(deserialize_dialog, text) == outcome(reference_parse_structured, text)


def test_first_bad_item_wins_across_kinds_of_fault():
    # turn 0 has a blank speaker (raised while building it) and turn 1 a bad
    # type: the reader reports turn 0, as the field-by-field reader did
    doc = {"formatVersion": "1", "turns": [{"speaker": " ", "text": "a"}, {"speaker": 3}]}
    text = json.dumps(doc)
    assert outcome(deserialize_dialog, text) == (
        ParseError, "turn speaker must be non-empty after trimming")
    assert outcome(reference_parse_structured, text) == outcome(deserialize_dialog, text)


# the faults a dialog file can have that break a rule of Turn, Event or
# Dialog.validate rather than a field's JSON type, each applied to a drawn
# turn or event of a valid document
def _blank_speaker(doc, draw):
    # with the turn's utter event blanked too, only the speaker rule is broken
    j = draw(st.sampled_from(range(len(doc["turns"]))))
    doc["turns"][j]["speaker"] = blank = draw(st.sampled_from(["", " ", "\t\n "]))
    if draw(st.booleans()):
        [e for e in doc["events"] if e.get("action") == "utter"][j]["agent"] = blank


def _trailing_newlines(doc, draw):
    # on the turn alone the file is valid; on its utter event too, or with a
    # second line, it is not
    j = draw(st.sampled_from(range(len(doc["turns"]))))
    utter = [e for e in doc["events"] if e.get("action") == "utter"][j]
    tail = draw(st.sampled_from(["\n", "\n\n", "\nmore\n"]))
    for item in draw(st.sampled_from([[doc["turns"][j]], [utter], [doc["turns"][j], utter]])):
        item["text"] = item.get("text", "") + tail


def _unknown_action(doc, draw):
    draw(st.sampled_from(doc["events"]))["action"] = draw(st.sampled_from(["say", "Utter", ""]))


def _unlabelled_instruct(doc, draw):
    # an utter event made an instruct also breaks the pairing, so a new one goes in
    at = draw(st.integers(0, len(doc["events"])))
    stamp = doc["events"][at - 1]["timestamp"] if at else 0
    event = {"agent": "Bob", "action": "instruct", "actionLabel": "X", "text": "t",
             "timestamp": stamp}
    doc["events"].insert(at, event)
    if draw(st.booleans()):
        del event["actionLabel"]
    else:
        event["actionLabel"] = draw(st.sampled_from(["", None]))


def _labelled_event(doc, draw):  # valid: any event may carry a label
    event = draw(st.sampled_from(doc["events"]))
    event["action"] = draw(st.sampled_from(["utter", "pick_suggestion"]))
    event["actionLabel"] = draw(st.sampled_from(["Picker", "x"]))


def _earlier_timestamp(doc, draw):
    event = draw(st.sampled_from(doc["events"]))
    event["timestamp"] = draw(st.sampled_from([-1, event["timestamp"] - 1]))


def _bool_for_int(doc, draw):
    where = draw(st.sampled_from(["event", "id", "seed"]))
    if where == "event":
        draw(st.sampled_from(doc["events"]))["timestamp"] = draw(st.booleans())
    else:
        doc[where] = draw(st.booleans())


def _utter_mismatch(doc, draw):
    utters = [e for e in doc["events"] if e.get("action") == "utter"]
    draw(st.sampled_from(utters))[draw(st.sampled_from(["agent", "text"]))] = "someone else"


def _extra_or_missing_utter(doc, draw):
    events = doc["events"]
    at = draw(st.integers(0, len(events)))
    what = draw(st.sampled_from(["extra", "drop event", "drop turn", "drop events"]))
    if what == "extra":
        stamp = events[at - 1]["timestamp"] if at else 0
        events.insert(at, {"agent": "Alice", "action": "utter", "actionLabel": None,
                           "text": "again", "timestamp": stamp})
    elif what == "drop events":
        del doc["events"]
    elif what == "drop event" and events:
        events.pop(min(at, len(events) - 1))
    elif doc["turns"]:
        doc["turns"].pop(min(at, len(doc["turns"]) - 1))


def _lone_surrogate(doc, draw):
    item = draw(st.sampled_from(doc["turns"] + doc.get("events", [])))
    item["text"] = item.get("text", "") + draw(st.sampled_from(["\ud800", "\udfff"]))


FAULTS = [_blank_speaker, _trailing_newlines, _unknown_action, _unlabelled_instruct,
          _labelled_event, _earlier_timestamp, _bool_for_int, _utter_mismatch,
          _extra_or_missing_utter, _lone_surrogate]


@st.composite
def faulty_documents(draw):
    """A valid document with events, and one or two faults, each applied
    where it can be (a fault that needs a turn or an event skips a dialog
    that has none)."""
    dialog = random_dialog(random.Random(draw(st.integers(0, 2**32))),
                           plain_safe=draw(st.booleans()))
    doc = json.loads(json.dumps(_to_mapping(dialog)))
    for fault in draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2)):
        try:
            fault(doc, draw)
        except (KeyError, IndexError, hypothesis.errors.InvalidArgument):  # no such item to fault
            pass
    return doc


@settings(max_examples=600, deadline=None)
@given(st.one_of(documents(), faulty_documents()), st.booleans())
def test_reader_matches_the_reader_before_records_were_checked_by_column(doc, ascii_only):
    # with ensure_ascii a lone surrogate is written as a \ud800 escape, else raw
    text = json.dumps(doc, ensure_ascii=ascii_only)
    assert outcome(deserialize_dialog, text) == outcome(reader_before.deserialize_dialog, text)


@pytest.mark.parametrize("text", [
    "", "[]", "{}", '{"formatVersion": "1"}', '{"formatVersion": "1", "turns": []}',
    '{"formatVersion": "1", "turns": [], "events": null}',
    '{"formatVersion": "1", "turns": [], "events": {}}',
    '{"formatVersion": "1", "turns": [{"speaker": "A", "text": "hi"}], "events": []}',
    '{"formatVersion": "1", "turns": [{"speaker": "A", "text": "hi\\n"}]}',
    '{"formatVersion": "1", "turns": [["A", "hi"]], "events": [{"speaker": "A"}]}',
    '{"formatVersion": "1", "turns": [], "events": [{"agent": "A", "action": "instruct",'
    ' "text": "t", "timestamp": 0}], "id": -1}',
    # each rule the column checks make, broken with the turns and utter events still paired
    '{"formatVersion": "1", "turns": [{"speaker": " ", "text": "a"}],'
    ' "events": [{"agent": " ", "action": "utter", "actionLabel": null, "text": "a", "timestamp": 0}]}',
    '{"formatVersion": "1", "turns": [{"speaker": "A", "text": "a\\n"}],'
    ' "events": [{"agent": "A", "action": "utter", "actionLabel": null, "text": "a\\n", "timestamp": 0}]}',
    '{"formatVersion": "1", "turns": [], "events": [{"agent": "A", "action": "instruct",'
    ' "actionLabel": "", "text": "t", "timestamp": 0}]}',
    '{"formatVersion": "1", "turns": [], "events": [{"agent": "A", "action": "instruct",'
    ' "actionLabel": null, "text": "t", "timestamp": 0}]}',
    '{"formatVersion": "1", "turns": [], "events": [{"agent": "A", "action": "say",'
    ' "actionLabel": "L", "text": "t", "timestamp": 0}]}',
    '{"formatVersion": "1", "turns": [], "events": [{"agent": "A", "action": "pick_suggestion",'
    ' "actionLabel": 3, "text": "t", "timestamp": 0}]}',
    '{"formatVersion": "1", "turns": [], "events": [{"agent": 1, "action": "pick_suggestion",'
    ' "actionLabel": "L", "text": "t", "timestamp": 0}]}',
    '{"formatVersion": "1", "turns": [], "events": [{"agent": "A", "action": "pick_suggestion",'
    ' "actionLabel": "L", "text": "t", "timestamp": true}]}',
    '{"formatVersion": "1", "turns": [], "events": [{"agent": "A", "action": "pick_suggestion",'
    ' "actionLabel": "L", "text": "t", "timestamp": 2}, {"agent": "A", "action": "pick_suggestion",'
    ' "actionLabel": "L", "text": "t", "timestamp": 1}]}',
    '{"formatVersion": "1", "turns": [], "events": ""}',
    # either case of the hex digits escapes a lone surrogate
    '{"formatVersion": "1", "turns": [{"speaker": "A", "text": "\\uD800"}]}',
    '{"formatVersion": "1", "turns": [{"speaker": "A", "text": "\\udBfF"}]}',
    '{"formatVersion": "1", "turns": [{"speaker": "A", "text": "\\uD83D\\uDE00 paired"}]}',
])
def test_small_documents_match_the_reader_before(text):
    assert outcome(deserialize_dialog, text) == outcome(reader_before.deserialize_dialog, text)


# pieces of JSON string bodies around backslashes: escapes of either case, lone
# and paired surrogates escaped or raw, an escaped backslash before "ud800",
# and escapes JSON does not allow
ESCAPE_PIECES = ["\\n", '\\"', "\\\\", "\\u", "\\ud800", "\\uDFFF", "\\udBfF", "\\uD83D\\uDE00",
                 "\\uD7FF", "\\u00e9", "\\\\ud800", "\\x", "\ud800", "\udfff", "\U0001f600", "é",
                 "d", "D", "u", "a", '"', "\n"]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(ESCAPE_PIECES), st.text(max_size=3)), max_size=12),
       st.sampled_from(["as JSON", "in a string", "bare"]), st.booleans())
def test_loads_matches_the_loader_before_on_escapes(pieces, how, ascii_only):
    body = "".join(pieces)
    text = {"as JSON": json.dumps({"text": body}, ensure_ascii=ascii_only),
            "in a string": f'{{"text": "{body}"}}', "bare": body}[how]
    assert outcome(_loads, text) == outcome(reader_before._loads, text)
