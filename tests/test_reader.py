"""The one-pass dialog reader against a copy of the field-by-field reader it
replaced: on valid documents and on documents with one to three fields
corrupted, both return equal dialogs, or both raise the same exception class
with the same message.
"""

from __future__ import annotations

import copy
import json
import random

from hypothesis import given, settings, strategies as st

from conftest import random_dialog
from dialogforge.dialog import (
    FORMAT_VERSION,
    Dialog,
    Event,
    Turn,
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
