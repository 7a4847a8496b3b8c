"""Tests for the dialogue data model, serialization, rendering, and file I/O."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random
import sys
import threading

import pytest
from hypothesis import assume, given, strategies as st

from dialogforge import (
    BadTurnLine,
    ConfigError,
    Dialog,
    EmptySpeaker,
    Event,
    InvariantViolation,
    ParseError,
    Turn,
    UnserializableSpeaker,
    deserialize_dialog,
    read_dialog_file,
    render_dialog,
    serialize_dialog,
    write_dialog_file,
)
from dialogforge.dialog import write_text_atomic
from conftest import random_dialog


def two_turn_dialog() -> Dialog:
    d = Dialog()
    d = d.append_utterance("Alice", "Hi!", 10)
    return d.append_utterance("Bob", "Hello, Alice!", 11)


class TestTurn:
    def test_trailing_newline_stripped(self):
        assert Turn("Alice", "Hi!\n").text == "Hi!"
        assert Turn("Alice", "Hi!\n\n").text == "Hi!"

    def test_inner_newline_kept_verbatim(self):
        assert Turn("Alice", "Hi!\nthere").text == "Hi!\nthere"

    def test_empty_speaker_rejected(self):
        with pytest.raises(EmptySpeaker):
            Turn("  ", "Hi!")

    def test_empty_text_allowed(self):
        assert Turn("Alice").text == ""


class TestEvent:
    def test_instruct_requires_label(self):
        with pytest.raises(InvariantViolation):
            Event("Alice", "instruct", None, "do it", 0)

    def test_unknown_action_rejected(self):
        with pytest.raises(InvariantViolation):
            Event("Alice", "shout", None, "hi", 0)


def records_built_both_ways():
    """Each Turn and Event of one dialog as its constructor builds it and as
    the reader builds it, which sets the fields of checked values directly."""
    d = two_turn_dialog().append_event(Event("Bob", "instruct", "Reflex", "be brief", 11))
    read = deserialize_dialog(serialize_dialog(d))
    assert read == d
    return [*d.turns, *d.events, *read.turns, *read.events]


class TestRecordContract:
    """Turn and Event are frozen, slotted dataclasses however they are built."""

    @pytest.mark.parametrize("record", records_built_both_ways(), ids=repr)
    def test_fields_cannot_be_assigned_or_added(self, record):
        for field in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, "x")
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, field.name)
        # a name that is not a field is refused the same way
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.extra = "x"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del record.extra
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("record", records_built_both_ways(), ids=repr)
    def test_pickle_and_copies_round_trip(self, record):
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
            assert type(twin) is type(record) and twin == record
            assert hash(twin) == hash(record) and repr(twin) == repr(record)

    @pytest.mark.parametrize("record", records_built_both_ways(), ids=repr)
    def test_equality_and_hash_follow_the_fields(self, record):
        same = type(record)(*dataclasses.astuple(record))
        assert same == record and hash(same) == hash(record) and len({same, record}) == 1
        changed = dataclasses.replace(record, text=record.text + "!")
        assert changed != record and changed.text == record.text + "!"

    def test_replace_runs_the_checks(self):
        turn, event = Turn("Alice", "Hi"), Event("Alice", "utter", None, "Hi", 0)
        assert dataclasses.replace(turn, text="Hi\n\n") == turn
        assert dataclasses.replace(event, timestamp=3).timestamp == 3
        with pytest.raises(EmptySpeaker):
            dataclasses.replace(turn, speaker=" ")
        with pytest.raises(InvariantViolation, match="unknown event action"):
            dataclasses.replace(event, action="shout")
        with pytest.raises(InvariantViolation, match="require an action label"):
            dataclasses.replace(event, action="instruct")

    def test_repr_and_constructors_as_before(self):
        assert repr(Turn("A", "b\n")) == "Turn(speaker='A', text='b')"
        assert repr(Event("A", "instruct", "L", "t", 2)) == (
            "Event(agent='A', action='instruct', action_label='L', text='t', timestamp=2)")
        with pytest.raises(EmptySpeaker, match="non-empty after trimming"):
            Turn("\t\n")
        with pytest.raises(InvariantViolation, match="require an action label"):
            Event("A", "instruct", "", "t", 0)


class TestDialogOps:
    def test_length_counts_turns(self):
        assert len(two_turn_dialog()) == 2

    def test_empty_dialog_length_zero(self):
        assert len(Dialog()) == 0

    def test_six_turn_dialog_passes_min_filter(self):
        d = Dialog()
        for i in range(6):
            d = d.append_utterance("AB"[i % 2], f"turn {i}", i)
        assert len(d) == 6
        assert len(d) >= 6

    def test_str_prints_plain_text(self):
        assert str(two_turn_dialog()) == "Alice: Hi!\nBob: Hello, Alice!\n"

    def test_append_is_pure_and_increments(self):
        d0 = Dialog()
        d1 = d0.append_utterance("Alice", "Hi!", 1)
        assert len(d0) == 0 and len(d1) == 1
        assert len(d1.events) == 1 and d1.events[0].action == "utter"

    def test_append_empty_speaker(self):
        with pytest.raises(EmptySpeaker):
            Dialog().append_utterance("  ", "Hi!", 0)

    def test_timestamps_monotone_by_construction(self):
        d = Dialog().append_utterance("A", "x", 5).append_utterance("B", "y", 3)
        assert d.events[0].timestamp <= d.events[1].timestamp
        d.validate()

    def test_validate_catches_desync(self):
        d = two_turn_dialog()
        broken = Dialog(turns=d.turns, events=d.events[:1])
        with pytest.raises(InvariantViolation):
            broken.validate()

    def test_negative_id_rejected(self):
        with pytest.raises(InvariantViolation):
            Dialog(id=-1)


class TestSerialization:
    def test_plain_two_turns(self):
        assert serialize_dialog(two_turn_dialog(), "plain") == "Alice: Hi!\nBob: Hello, Alice!\n"

    def test_structured_round_trip_exact(self):
        d = two_turn_dialog()
        assert deserialize_dialog(serialize_dialog(d, "structured"), "structured") == d

    def test_scenario_keys_survive(self):
        d = Dialog(scenario={"topic": "coffee order", "location": "cafe"})
        text = serialize_dialog(d, "structured")
        doc = json.loads(text)
        assert doc["scenario"] == {"topic": "coffee order", "location": "cafe"}

    def test_canonical_field_order(self):
        doc = json.loads(serialize_dialog(Dialog(), "structured"))
        assert list(doc) == [
            "formatVersion", "id", "model", "seed", "scenario", "personas",
            "turns", "events",
        ]

    def test_speaker_with_separator_rejected_in_plain(self):
        d = Dialog().append_utterance("X: Y", "hi", 0)
        with pytest.raises(UnserializableSpeaker):
            serialize_dialog(d, "plain")
        # structured has no such restriction
        round_tripped = deserialize_dialog(serialize_dialog(d, "structured"))
        assert round_tripped.turns[0].speaker == "X: Y"

    def test_plain_flattens_inner_newlines(self):
        d = Dialog().append_utterance("A", "two\nlines", 0)
        assert serialize_dialog(d, "plain") == "A: two lines\n"

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            serialize_dialog(Dialog(), "yaml")
        with pytest.raises(ConfigError, match="unknown dialog format 'yaml'"):
            deserialize_dialog("A: hi\n", "yaml")

    def test_structured_refuses_what_it_cannot_read_back(self):
        # a turn without its paired utter event would fail on parse
        with pytest.raises(InvariantViolation):
            serialize_dialog(Dialog(turns=(Turn("A", "x"),)), "structured")


class TestDeserialization:
    def test_plain_minimal(self):
        d = deserialize_dialog("Alice: Hi!\n", "plain")
        assert len(d) == 1
        assert d.turns[0] == Turn("Alice", "Hi!")
        assert d.events[0].timestamp == 0  # "unknown" sentinel

    def test_plain_line_without_separator(self):
        with pytest.raises(BadTurnLine):
            deserialize_dialog("no separator here", "plain")

    def test_plain_blank_lines_skipped(self):
        d = deserialize_dialog("A: x\n\nB: y\n", "plain")
        assert [t.speaker for t in d.turns] == ["A", "B"]

    def test_missing_turns_field(self):
        with pytest.raises(ParseError):
            deserialize_dialog('{"formatVersion": "1"}', "structured")

    def test_unknown_version_rejected(self):
        doc = json.loads(serialize_dialog(two_turn_dialog(), "structured"))
        doc["formatVersion"] = "2"
        with pytest.raises(ParseError):
            deserialize_dialog(json.dumps(doc), "structured")

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            deserialize_dialog("{not json", "structured")

    def test_desynced_events_rejected(self):
        doc = json.loads(serialize_dialog(two_turn_dialog(), "structured"))
        doc["events"] = doc["events"][:1]
        with pytest.raises(ParseError):
            deserialize_dialog(json.dumps(doc), "structured")

    @pytest.mark.parametrize("corrupt", [
        lambda doc: [doc],
        lambda doc: {**doc, "events": [{**doc["events"][0], "timestamp": 12},
                                       doc["events"][1]]},
        lambda doc: {**doc, "events": [doc["events"][0],
                                       {**doc["events"][1], "text": "Goodbye"}]},
    ], ids=["top-level-array", "decreasing-timestamps", "utter-text-differs"])
    def test_inconsistent_document_rejected(self, corrupt):
        doc = json.loads(serialize_dialog(two_turn_dialog(), "structured"))
        with pytest.raises(ParseError):
            deserialize_dialog(json.dumps(corrupt(doc)), "structured")

    @pytest.mark.parametrize("format", ["structured", "plain"])
    def test_raw_lone_surrogate_rejected_like_its_escape(self, format):
        raw = '{"formatVersion": "1", "turns": [{"speaker": "A", "text": "half \ud800"}]}'
        escaped = raw.replace("\ud800", "\\ud800")
        with pytest.raises(ParseError) as excinfo:
            deserialize_dialog(escaped)
        message = str(excinfo.value)
        assert message == "a string holds a lone surrogate, '\\ud800'"
        text = raw if format == "structured" else "A: half \ud800\n"
        with pytest.raises(ParseError) as excinfo:
            deserialize_dialog(text, format)
        assert str(excinfo.value) == message

    def test_surrogate_pair_reads_back(self):
        for text in ['{"formatVersion": "1", "turns": [{"speaker": "A", "text": "\\ud83d\\ude00"}]}',
                     '{"formatVersion": "1", "turns": [{"speaker": "A", "text": "\U0001F600"}]}']:
            d = deserialize_dialog(text)
            assert d.turns[0].text == "\U0001F600"
            assert deserialize_dialog(serialize_dialog(d)) == d

    def test_missing_events_synthesized(self):
        doc = json.loads(serialize_dialog(two_turn_dialog(), "structured"))
        del doc["events"]
        d = deserialize_dialog(json.dumps(doc), "structured")
        d.validate()
        assert all(e.timestamp == 0 for e in d.events)


# Property tests -------------------------------------------------------------

speaker_st = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), max_codepoint=0x2FF),
    min_size=1, max_size=10,
).filter(lambda s: s.strip())

text_st = st.text(
    alphabet=st.characters(blacklist_characters="\n\r", max_codepoint=0x2FF),
    max_size=30,
)


@st.composite
def dialogs(draw):
    n = draw(st.integers(0, 6))
    speakers = draw(st.lists(speaker_st, min_size=2, max_size=2, unique=True))
    d = Dialog(
        id=draw(st.none() | st.integers(0, 10**6)),
        seed=draw(st.none() | st.integers(0, 2**31)),
        model=draw(st.none() | st.just("m")),
    )
    ts = 0
    for i in range(n):
        d = d.append_utterance(speakers[i % 2], draw(text_st), ts)
        ts += draw(st.integers(0, 2))
    return d


@given(dialogs())
def test_structured_round_trip_property(d):
    assert deserialize_dialog(serialize_dialog(d, "structured"), "structured") == d


@given(dialogs(), st.sampled_from(["id", "seed", "timestamp"]), st.booleans(), st.data())
def test_boolean_in_integer_field_rejected_property(d, field, value, data):
    doc = json.loads(serialize_dialog(d, "structured"))
    if field == "timestamp":
        assume(doc["events"])
        index = data.draw(st.integers(0, len(doc["events"]) - 1))
        doc["events"][index]["timestamp"] = value
    else:
        doc[field] = value
    with pytest.raises(ParseError):
        deserialize_dialog(json.dumps(doc), "structured")


@given(dialogs())
def test_plain_projection_property(d):
    back = deserialize_dialog(serialize_dialog(d, "plain"), "plain")
    assert [(t.speaker, t.text) for t in back.turns] == [
        (t.speaker, t.text) for t in d.turns
    ]


def test_randomized_round_trip_with_events():
    rng = random.Random(7)
    for _ in range(50):
        d = random_dialog(rng)
        d.validate()
        assert deserialize_dialog(serialize_dialog(d, "structured"), "structured") == d


class TestRender:
    def test_no_flags_equals_plain(self):
        d = two_turn_dialog()
        assert render_dialog(d, color=False) == serialize_dialog(d, "plain")

    def test_orchestration_shows_instruction(self):
        d = Dialog().append_event(
            Event("Assistant", "instruct", "LengthOrchestrator", "keep going", 0)
        ).append_utterance("Assistant", "ok", 1)
        out = render_dialog(d, show_orchestration=True, color=False)
        assert "LengthOrchestrator" in out
        assert "keep going" in out
        assert out.index("keep going") < out.index("Assistant: ok")

    def test_scenario_header(self, star_root):
        d = read_dialog_file(star_root / "dialogues" / "101.json")
        from dialogforge import load_dialog, set_dataset_root

        d = load_dialog(set_dataset_root(star_root), 101)
        out = render_dialog(d, show_scenario=True, color=False)
        assert "banking" in out

    def test_color_codes_only_when_enabled(self):
        d = two_turn_dialog()
        assert "\x1b[" in render_dialog(d, color=True)
        assert "\x1b[" not in render_dialog(d, color=False)

    def test_distinct_speakers_distinct_colors(self):
        out = render_dialog(two_turn_dialog(), color=True)
        alice_line, bob_line = out.splitlines()
        assert alice_line[: alice_line.index("Alice")] != bob_line[: bob_line.index("Bob")]


class TestFileIO:
    def test_json_round_trip(self, tmp_path):
        d = two_turn_dialog()
        path = write_dialog_file(d, tmp_path / "out" / "dialog_001.json")
        assert read_dialog_file(path) == d

    def test_txt_round_trip_turns_only(self, tmp_path):
        d = two_turn_dialog()
        path = write_dialog_file(d, tmp_path / "dialog_001.txt")
        back = read_dialog_file(path)
        assert [(t.speaker, t.text) for t in back.turns] == [
            (t.speaker, t.text) for t in d.turns
        ]

    def test_failed_write_keeps_existing_file(self, tmp_path):
        path = write_dialog_file(two_turn_dialog(), tmp_path / "dialog.json")
        before = path.read_bytes()
        # a lone surrogate serializes to str but fails while being encoded
        broken = Dialog().append_utterance("Alice", "half \ud800 written", 0)
        with pytest.raises(UnicodeEncodeError):
            write_dialog_file(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["dialog.json"]

    def test_threads_writing_one_path_never_tear_it(self, tmp_path):
        path = tmp_path / "dialog.json"
        contents = ["a" * 4096, "b" * 4096]
        barrier = threading.Barrier(len(contents))
        failures: list[BaseException] = []
        seen: set[str] = set()

        def writer(text):
            barrier.wait()
            try:
                for _ in range(300):
                    write_text_atomic(path, text)
                    seen.add(path.read_text(encoding="utf-8"))
            except BaseException as exc:
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(text,)) for text in contents]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert seen <= set(contents)
        assert [p.name for p in tmp_path.iterdir()] == ["dialog.json"]

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ConfigError):
            write_dialog_file(Dialog(), tmp_path / "dialog.yaml")
