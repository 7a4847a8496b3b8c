"""Tests for the one-shot and persona-pair dialogue generators."""

from __future__ import annotations

import json

import pytest

from dialogforge import (
    DuplicateAgentName,
    GenerationBrief,
    InvariantViolation,
    Persona,
    ScriptedBackend,
    SchemaViolation,
    generate_dialog,
    generate_persona_dialog,
    serialize_dialog,
)

BRIEF = GenerationBrief(
    details="Generate a conversation between a customer and a barista about ordering coffee.",
    speaker_a="Customer",
    speaker_b="Barista",
)

VALID_ARRAY = json.dumps(
    [
        {"speaker": "Customer", "text": "One flat white, please."},
        {"speaker": "Barista", "text": "Coming right up!"},
    ]
)


class TestBrief:
    def test_empty_details_rejected(self):
        with pytest.raises(InvariantViolation):
            GenerationBrief(details="  ", speaker_a="A", speaker_b="B")

    def test_equal_speakers_rejected(self):
        with pytest.raises(InvariantViolation):
            GenerationBrief(details="x", speaker_a="A", speaker_b="A")


class TestGenerateDialog:
    def test_valid_array_parsed(self):
        d = generate_dialog(ScriptedBackend([VALID_ARRAY]), BRIEF, seed=1)
        assert len(d) == 2
        assert [t.speaker for t in d.turns] == ["Customer", "Barista"]
        d.validate()
        assert all(e.timestamp == 0 for e in d.events)

    def test_speakers_limited_to_brief(self):
        d = generate_dialog(ScriptedBackend([VALID_ARRAY]), BRIEF, seed=1)
        assert {t.speaker for t in d.turns} <= {"Customer", "Barista"}

    def test_metadata_total(self):
        d = generate_dialog(ScriptedBackend([VALID_ARRAY]), BRIEF)
        assert d.model == "scripted"
        assert isinstance(d.seed, int)

    def test_fenced_json_tolerated(self):
        fenced = f"```json\n{VALID_ARRAY}\n```"
        d = generate_dialog(ScriptedBackend([fenced]), BRIEF, seed=1)
        assert len(d) == 2

    def test_repair_reask_recovers(self):
        backend = ScriptedBackend(["sorry, here you go:", VALID_ARRAY])
        d = generate_dialog(backend, BRIEF, seed=1)
        assert len(d) == 2

    def test_two_bad_completions_raise_with_raw(self):
        backend = ScriptedBackend(["prose one", "prose two"])
        with pytest.raises(SchemaViolation) as excinfo:
            generate_dialog(backend, BRIEF, seed=1)
        assert excinfo.value.raw == "prose two"

    def test_off_schema_speaker_rejected(self):
        bad = json.dumps([{"speaker": "Stranger", "text": "hi"}])
        backend = ScriptedBackend([bad, bad])
        with pytest.raises(SchemaViolation):
            generate_dialog(backend, BRIEF, seed=1)

    @pytest.mark.parametrize("element", [
        "Customer: hi",
        {"speaker": "Customer"},
        {"speaker": "Customer", "text": 3},
        {"speaker": True, "text": "hi"},
    ], ids=["string", "no-text", "int-text", "bool-speaker"])
    def test_ill_typed_element_raises_with_raw(self, element):
        bad = json.dumps([{"speaker": "Customer", "text": "hi"}, element])
        with pytest.raises(SchemaViolation, match="element 1") as excinfo:
            generate_dialog(ScriptedBackend([bad, bad]), BRIEF, seed=1)
        assert excinfo.value.raw == bad

    def test_fix_prompt_sent_on_repair(self):
        captured = []

        class Spy(ScriptedBackend):
            def complete(self, messages, params):
                captured.append([m.content for m in messages])
                return super().complete(messages, params)

        generate_dialog(Spy(["oops", VALID_ARRAY]), BRIEF, seed=1)
        assert len(captured) == 2
        assert "oops" in captured[1]


class TestPersonaDialogGenerator:
    ALICE = Persona(name="Alice", role="barista")
    BOB = Persona(name="Bob", role="customer")

    def test_turns_alternate_between_personas(self):
        backend = ScriptedBackend(["Hi Bob!", "Hello Alice!", "Bye! [END]"])
        d = generate_persona_dialog(backend, self.ALICE, self.BOB, seed=0)
        assert [t.speaker for t in d.turns] == ["Alice", "Bob", "Alice"]
        assert set(d.personas) == {"Alice", "Bob"}

    def test_initiator_prompt_has_greeting_clause(self):
        from dialogforge.generators import GREETING_CLAUSE

        prompts = []

        class Spy(ScriptedBackend):
            def complete(self, messages, params):
                prompts.append(messages[0].content)
                return super().complete(messages, params)

        generate_persona_dialog(Spy(["Hi Bob!", "Hello! [END]"]),
                                self.ALICE, self.BOB, seed=0)
        initiator_prompt, responder_prompt = prompts[0], prompts[1]
        assert GREETING_CLAUSE in initiator_prompt
        assert GREETING_CLAUSE not in responder_prompt

    def test_seeded_output_reproducible(self):
        def run():
            backend = ScriptedBackend(["Hi!", "Hello!", "Bye [END]"])
            return serialize_dialog(
                generate_persona_dialog(backend, self.ALICE, self.BOB, seed=4)
            )

        assert run() == run()

    def test_duplicate_names_rejected(self):
        with pytest.raises(DuplicateAgentName):
            generate_persona_dialog(
                ScriptedBackend(["x"]), self.ALICE, Persona(name="Alice"), seed=0
            )
