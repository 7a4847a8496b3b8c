"""Tests for persona prompts, agent memory, and the turn-taking engine."""

from __future__ import annotations

import pytest

from dialogforge import (
    Agent,
    ConfigError,
    DuplicateAgentName,
    EmptyCompletion,
    InvariantViolation,
    Persona,
    ScriptedBackend,
    persona_prompt,
    serialize_dialog,
)
from dialogforge.orchestrators import (
    ChangeMindOrchestrator,
    InstructionListOrchestrator,
    SimpleReflexOrchestrator,
)
from helpers import respond

ALICE = Persona(name="Alice", role="barista", personality="cheerful")
BOB = Persona(name="Bob", role="customer", personality="curious")


class TestPersona:
    def test_empty_name_rejected(self):
        with pytest.raises(InvariantViolation):
            Persona(name="   ")

    def test_snapshot_has_all_fields(self):
        snap = Persona(name="Bob").to_dict()
        assert set(snap) == {
            "name", "role", "background", "personality",
            "circumstances", "rules", "language",
        }

    def test_from_dict_round_trip(self):
        assert Persona.from_dict(ALICE.to_dict()) == ALICE

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match=r"'Alice'.*\['mood'\]"):
            Persona.from_dict({"name": "Alice", "mood": "sunny"})


class TestPersonaPrompt:
    def test_fields_rendered_as_labeled_lines(self):
        prompt = persona_prompt(ALICE)
        assert "Role: barista" in prompt
        assert "Personality: cheerful" in prompt

    def test_absent_fields_omitted(self):
        prompt = persona_prompt(Persona(name="Bob"))
        assert "Name: Bob" in prompt
        assert "Role:" not in prompt

    def test_deterministic(self):
        assert persona_prompt(ALICE) == persona_prompt(ALICE)

    def test_field_order_fixed(self):
        prompt = persona_prompt(Persona(name="X", language="French", role="guide"))
        assert prompt.index("Name:") < prompt.index("Role:") < prompt.index("Language:")

    def test_end_marker_in_stage_directions(self):
        assert '"[END]"' in persona_prompt(ALICE)


class TestAgent:
    def test_name_defaults_to_persona(self):
        agent = Agent(ScriptedBackend(["x"]), ALICE)
        assert agent.name == "Alice"

    def test_memory_starts_with_system_prompt(self):
        agent = Agent(ScriptedBackend(["x"]), ALICE)
        assert agent.memory[0].role == "system"
        assert "Role: barista" in agent.memory[0].content

    def test_same_seed_same_rng_stream(self):
        a = Agent(ScriptedBackend(["x"]), ALICE).reset(0)
        b = Agent(ScriptedBackend(["x"]), ALICE).reset(0)
        assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]

    def test_empty_first_utterance_rejected(self):
        for first in ("", "\n", "\n\n"):
            with pytest.raises(ConfigError,
                               match="persona 'Alice' has a first utterance with no text"):
                Agent(ScriptedBackend(["x"]), ALICE, first_utterance=first)

    @pytest.mark.parametrize("first", [" ", "\r\n", "[END]", "\n[END]"])
    def test_first_utterance_that_stores_text_or_ends_accepted(self, first):
        assert Agent(ScriptedBackend(["x"]), ALICE, first_utterance=first).first_utterance == first

    def test_respond_passthrough_without_orchestrators(self):
        agent = Agent(ScriptedBackend(["Sure!"]), ALICE)
        reply, events = respond(agent, "Hello?")
        assert reply == "Sure!"
        assert events == []

    def test_respond_emits_instruct_event(self):
        agent = Agent(ScriptedBackend(["Hello!"]), ALICE)
        agent = agent | InstructionListOrchestrator(
            {0: "Say 'Hello!' as your first utterance."}
        )
        reply, events = respond(agent, None)
        assert len(events) == 1
        assert events[0].action == "instruct"
        assert events[0].text == "Say 'Hello!' as your first utterance."
        assert events[0].action_label == "InstructionListOrchestrator"

    def test_two_orchestrators_fire_in_order(self):
        agent = Agent(ScriptedBackend(["ok"]), ALICE)
        agent = agent | SimpleReflexOrchestrator(lambda _: True, "first")
        agent = agent | SimpleReflexOrchestrator(lambda _: True, "second")
        _, events = respond(agent)
        assert [e.text for e in events] == ["first", "second"]

    def test_ephemeral_instructions_removed_from_memory(self):
        agent = Agent(ScriptedBackend(["ok"]), ALICE)
        agent = agent | SimpleReflexOrchestrator(lambda _: True, "transient hint")
        respond(agent)
        assert not any("transient hint" in m.content for m in agent.memory)

    def test_persistent_instructions_stay(self):
        agent = Agent(ScriptedBackend(["ok"]), ALICE)
        agent = agent | SimpleReflexOrchestrator(
            lambda _: True, "permanent rule", persist=True
        )
        respond(agent)
        assert any(m.role == "system" and m.content == "permanent rule"
                   for m in agent.memory)

    def test_reset_clears_memory_and_orchestrator_state(self):
        mind = ChangeMindOrchestrator(probability=1.0, max_times=2)
        agent = Agent(ScriptedBackend(["ok"], cycle=True), ALICE).reset(1) | mind
        for _ in range(4):
            respond(agent)
        assert mind.fired == 2
        agent.reset(seed=1)
        assert len(agent.memory) == 1
        assert mind.fired == 0
        for _ in range(4):
            respond(agent)
        assert mind.fired == 2

    def test_reset_reseeds_deterministically(self):
        agent = Agent(ScriptedBackend(["x"]), ALICE)
        agent.reset(seed=5)
        first = [agent.rng.random() for _ in range(3)]
        agent.reset(seed=5)
        assert [agent.rng.random() for _ in range(3)] == first


class TestDialogWith:
    def test_end_marker_immediate(self):
        a = Agent(ScriptedBackend(["Hi! [END]"]), ALICE)
        b = Agent(ScriptedBackend(["never spoken"]), BOB)
        d = a.dialog_with(b)
        assert len(d) == 1
        assert d.turns[0].text == "Hi!"

    def test_alternation(self):
        a = Agent(ScriptedBackend(["a1", "a2", "a3"]), ALICE)
        b = Agent(ScriptedBackend(["b1", "b2"]), BOB)
        d = a.dialog_with(b, max_turns=5)
        assert [t.speaker for t in d.turns] == ["Alice", "Bob"] * 2 + ["Alice"]

    def test_max_turns_cap(self):
        a = Agent(ScriptedBackend(["x"], cycle=True), ALICE)
        b = Agent(ScriptedBackend(["y"], cycle=True), BOB)
        assert len(a.dialog_with(b, max_turns=4)) == 4

    def test_negative_id_rejected_before_the_first_move(self):
        class Counting(ScriptedBackend):
            calls = 0

            def _complete(self, messages, params):
                Counting.calls += 1
                return super()._complete(messages, params)

        backend = Counting(["x"], cycle=True)
        a, b = Agent(backend, ALICE), Agent(backend, BOB)
        with pytest.raises(InvariantViolation, match="dialog id must be non-negative"):
            a.dialog_with(b, id=-1, max_turns=30)
        assert Counting.calls == 0
        assert a.dialog_with(b, id=0, max_turns=30).id == 0

    def test_duplicate_names_rejected(self):
        a = Agent(ScriptedBackend(["x"]), ALICE)
        b = Agent(ScriptedBackend(["y"]), Persona(name="Alice"))
        with pytest.raises(DuplicateAgentName):
            a.dialog_with(b)

    def test_metadata_stamped(self):
        a = Agent(ScriptedBackend(["x [END]"]), ALICE)
        b = Agent(ScriptedBackend(["y"]), BOB)
        d = a.dialog_with(b, id=3, seed=9)
        assert d.id == 3 and d.seed == 9 and d.model == "scripted"
        assert set(d.personas) == {"Alice", "Bob"}
        assert d.personas["Alice"]["role"] == "barista"

    def test_entropy_seed_recorded_when_unset(self):
        a = Agent(ScriptedBackend(["x [END]"]), ALICE)
        b = Agent(ScriptedBackend(["y"]), BOB)
        d = a.dialog_with(b)
        assert isinstance(d.seed, int)

    def test_seeded_runs_byte_identical(self):
        def run():
            a = Agent(ScriptedBackend(["a1", "a2 [END]"]), ALICE)
            b = Agent(ScriptedBackend(["b1"]), BOB)
            return serialize_dialog(a.dialog_with(b, id=3, seed=3))

        assert run() == run()

    def test_first_utterance_used_verbatim(self):
        a = Agent(ScriptedBackend(["generated later"]), ALICE,
                  first_utterance="Welcome to the cafe!")
        b = Agent(ScriptedBackend(["Thanks! [END]"]), BOB)
        d = a.dialog_with(b)
        assert d.turns[0].text == "Welcome to the cafe!"
        # the fixed greeting still enters Alice's memory as her own line
        assert any(m.role == "assistant" and m.content == "Welcome to the cafe!"
                   for m in a.memory)

    def test_first_utterance_of_second_agent(self):
        a = Agent(ScriptedBackend(["a1", "a2 [END]"]), ALICE)
        b = Agent(ScriptedBackend(["never spoken"]), BOB, first_utterance="Hello there!")
        b = b | SimpleReflexOrchestrator(lambda _: True, "not consulted")
        d = a.dialog_with(b, seed=0)
        assert [(t.speaker, t.text) for t in d.turns] == [
            ("Alice", "a1"), ("Bob", "Hello there!"), ("Alice", "a2")]
        assert not any(e.action == "instruct" for e in d.events)
        # Bob heard Alice's line before giving his fixed one
        assert [(m.role, m.content) for m in b.memory[1:]] == [
            ("user", "a1"), ("assistant", "Hello there!")]

    def test_agents_count_their_own_turns(self):
        a = Agent(ScriptedBackend(["a"], cycle=True), ALICE, first_utterance="Hi")
        b = Agent(ScriptedBackend(["b"], cycle=True), BOB)
        a.dialog_with(b, max_turns=5)
        assert (a.turns, b.turns) == (3, 2)
        assert a.reset().turns == 0

    def test_timestamps_are_event_positions(self):
        a = Agent(ScriptedBackend(["a"], cycle=True), ALICE)
        a = a | SimpleReflexOrchestrator(lambda _: True, "one") \
              | SimpleReflexOrchestrator(lambda u: u == "b", "two")
        b = Agent(ScriptedBackend(["b"], cycle=True), BOB)
        d = a.dialog_with(b, max_turns=5)
        assert [e.timestamp for e in d.events] == list(range(len(d.events)))
        assert [e.action for e in d.events[:4]] == ["instruct", "utter", "utter", "instruct"]

    def test_differing_backend_models_joined(self):
        a = Agent(ScriptedBackend(["x [END]"]), ALICE)
        b = Agent(ScriptedBackend(["y"]), BOB)
        a.backend.model, b.backend.model = "a", "b"
        assert a.dialog_with(b).model == "a+b"

    def test_turn_event_sync_after_run(self):
        a = Agent(ScriptedBackend(["a1", "a2", "a3 [END]"]), ALICE)
        a = a | SimpleReflexOrchestrator(lambda _: True, "stay on topic")
        b = Agent(ScriptedBackend(["b1", "b2"]), BOB)
        d = a.dialog_with(b, seed=0)
        d.validate()
        assert any(e.action == "instruct" for e in d.events)

    def test_memory_hygiene_after_run(self):
        a = Agent(ScriptedBackend(["a1", "a2 [END]"]), ALICE)
        a = a | SimpleReflexOrchestrator(lambda _: True, "ephemeral nudge")
        b = Agent(ScriptedBackend(["b1"]), BOB)
        a.dialog_with(b, seed=0)
        assert not any("ephemeral nudge" in m.content for m in a.memory)

    def test_partner_sees_stripped_text(self):
        a = Agent(ScriptedBackend(["Hello Bob!"]), ALICE)
        b = Agent(ScriptedBackend(["Bye! [END]"]), BOB)
        a.dialog_with(b)
        assert any(m.role == "user" and m.content == "Hello Bob!" for m in b.memory)

    def test_partner_is_sent_the_stored_text_without_trailing_newlines(self):
        class Recording(ScriptedBackend):
            def _complete(self, messages, params):
                self.sent = [m.content for m in messages if m.role == "user"]
                return super()._complete(messages, params)

        a = Agent(ScriptedBackend(["hi\n\n"]), ALICE)
        b = Agent(Recording(["Bye! [END]"]), BOB)
        assert a.dialog_with(b).turns[0].text == "hi"
        assert b.backend.sent == ["hi"]

    @pytest.mark.parametrize("blank", ["\n", "\n\n"])
    def test_reply_with_no_text_fails_before_the_partner_hears_it(self, blank):
        a = Agent(ScriptedBackend(["Hi", blank]), ALICE)
        b = Agent(ScriptedBackend(["ok"], cycle=True), BOB)
        with pytest.raises(EmptyCompletion,
                           match="reply with no text from backend 'scripted' to 'Alice'"):
            a.dialog_with(b, max_turns=6)
        assert b.turns == 1
        assert [m.content for m in b.memory if m.role == "user"] == ["Hi"]

    @pytest.mark.parametrize("reply", ["[END]", "\n[END]\n", " [END] "])
    def test_marker_alone_ends_with_an_empty_turn(self, reply):
        a = Agent(ScriptedBackend(["Hi"]), ALICE)
        b = Agent(ScriptedBackend([reply]), BOB)
        assert [turn.text for turn in a.dialog_with(b).turns] == ["Hi", ""]

    def test_first_utterance_of_marker_alone_is_a_one_turn_dialog(self):
        a = Agent(ScriptedBackend(["never spoken"]), ALICE, first_utterance="[END]")
        b = Agent(ScriptedBackend(["never spoken"]), BOB)
        assert [turn.text for turn in a.dialog_with(b).turns] == [""]
        assert b.turns == 0

    def test_marker_mid_text_does_not_terminate(self):
        a = Agent(ScriptedBackend(["the [END] marker mid-sentence", "bye [END]"]), ALICE)
        b = Agent(ScriptedBackend(["ok"], cycle=True), BOB)
        d = a.dialog_with(b, max_turns=6)
        assert len(d) == 3
