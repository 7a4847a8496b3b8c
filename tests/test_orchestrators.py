"""Tests for the five built-in orchestrators and their composition."""

from __future__ import annotations

import pytest

from dialogforge import (
    Agent,
    ConfigError,
    Dialog,
    InvariantViolation,
    Persona,
    ScriptedBackend,
)
from dialogforge.orchestrators import (
    MESSAGES,
    ChangeMindOrchestrator,
    InstructionListOrchestrator,
    LengthOrchestrator,
    Orchestrator,
    SimpleReflexOrchestrator,
    SimpleResponseOrchestrator,
)
from helpers import oracle_cosine, oracle_embed

ALICE = Persona(name="Alice")
BOB = Persona(name="Bob")


def make_agent(script=("ok",), seed=0, persona=ALICE):
    return Agent(ScriptedBackend(list(script), cycle=True), persona).reset(seed)


def dialog_of_length(n: int) -> Dialog:
    d = Dialog()
    for i in range(n):
        d = d.append_utterance(["Alice", "Bob"][i % 2], f"line {i}", i)
    return d


class TestInstruction:
    def test_empty_text_rejected(self):
        class EmptyText(Orchestrator):
            def instruct(self, dialog, utterance):
                return ""

        agent = make_agent() | EmptyText()
        with pytest.raises(InvariantViolation):
            agent.respond("hi", Dialog())


class TestAttach:
    def test_pipe_appends_in_order(self):
        left = SimpleReflexOrchestrator(lambda _: True, "L")
        mid = SimpleReflexOrchestrator(lambda _: True, "M")
        agent = make_agent() | left | mid
        assert [o.instruction for o in agent.orchestrators] == ["L", "M"]

    def test_same_orchestrator_twice_fires_twice(self):
        orch = SimpleReflexOrchestrator(lambda _: True, "hint")
        agent = make_agent() | orch | orch
        _, events = agent.respond("hi", Dialog())
        assert [e.text for e in events] == ["hint", "hint"]
        assert {e.action_label for e in events} == {"SimpleReflexOrchestrator"}

    def test_no_orchestrators_no_instruct_events(self):
        _, events = make_agent().respond("hi", Dialog())
        assert events == []

    def test_rebinding_to_other_agent_rejected(self):
        orch = SimpleReflexOrchestrator(lambda _: True, "x")
        make_agent() | orch
        with pytest.raises(ConfigError):
            make_agent(persona=BOB) | orch


class TestSimpleReflex:
    def test_condition_true_fires(self):
        orch = SimpleReflexOrchestrator(
            lambda u: "refund" in u, "Offer an apology first."
        )
        assert orch.instruct(Dialog(), "I want a refund") == "Offer an apology first."

    def test_condition_false_silent(self):
        orch = SimpleReflexOrchestrator(lambda u: "refund" in u, "x")
        assert orch.instruct(Dialog(), "hello") is None

    def test_missing_utterance_becomes_empty_string(self):
        seen = []
        orch = SimpleReflexOrchestrator(lambda u: seen.append(u) or False, "x")
        assert orch.instruct(Dialog(), None) is None
        assert seen == [""]


class TestLength:
    def test_below_min_fires_continue(self):
        orch = LengthOrchestrator(min_turns=5, max_turns=10)
        assert orch.instruct(dialog_of_length(2), "x") == MESSAGES["continue"]

    def test_at_max_fires_finish(self):
        orch = LengthOrchestrator(min_turns=10, max_turns=15)
        fired = orch.instruct(dialog_of_length(15), "x")
        assert fired is not None
        assert "[END]" in fired

    def test_in_band_silent(self):
        orch = LengthOrchestrator(min_turns=2, max_turns=5)
        assert orch.instruct(dialog_of_length(3), "x") is None

    def test_min_above_max_rejected(self):
        with pytest.raises(ConfigError):
            LengthOrchestrator(min_turns=6, max_turns=5)


class TestChangeMind:
    def test_probability_validated(self):
        with pytest.raises(ConfigError):
            ChangeMindOrchestrator(probability=1.5)

    def test_probability_zero_never_fires(self):
        agent = make_agent() | ChangeMindOrchestrator(probability=0.0, max_times=3)
        for _ in range(10):
            _, events = agent.respond("hi", Dialog())
            assert events == []

    def test_probability_one_fires_first_n_turns(self):
        mind = ChangeMindOrchestrator(probability=1.0, max_times=2)
        agent = make_agent() | mind
        fired = []
        for _ in range(5):
            _, events = agent.respond("hi", Dialog())
            fired.append(bool(events))
        assert fired == [True, True, False, False, False]

    def test_fire_count_bounded_over_seeds(self):
        for seed in range(100):
            mind = ChangeMindOrchestrator(probability=0.4, max_times=2,
                                          reasons=["changed plans", "new information"])
            agent = make_agent(seed=seed) | mind
            agent.reset(seed)
            count = 0
            for _ in range(10):
                _, events = agent.respond("hi", Dialog())
                count += len(events)
            assert count <= 2

    def test_reason_cited(self):
        mind = ChangeMindOrchestrator(probability=1.0, reasons=["changed plans"])
        agent = make_agent() | mind
        _, events = agent.respond("hi", Dialog())
        assert "changed plans" in events[0].text

    def test_draw_discard_keeps_stream_aligned(self):
        # rng draws continue after the budget is exhausted, so downstream
        # consumers of the same rng see identical streams either way
        def downstream_draws(max_times):
            mind = ChangeMindOrchestrator(probability=0.0 if max_times == 0 else 1.0,
                                          max_times=max_times or 1)
            agent = make_agent(seed=123)
            agent | mind
            agent.reset(123)
            for _ in range(6):
                mind.instruct(Dialog(), "x")
            return [agent.rng.random() for _ in range(3)]

        assert downstream_draws(0) == downstream_draws(1)


class TestSimpleResponse:
    CANDIDATES = ["open a new account", "close account"]

    def test_first_turn_silent(self):
        orch = SimpleResponseOrchestrator(self.CANDIDATES)
        make_agent() | orch
        assert orch.instruct(Dialog(), None) is None

    def test_ranking_matches_oracle(self):
        query = "I want to open an account"
        orch = SimpleResponseOrchestrator(self.CANDIDATES, top_k=2)
        make_agent() | orch
        fired = orch.instruct(Dialog(), query)
        oracle_scores = {
            c: oracle_cosine(oracle_embed(query), oracle_embed(c))
            for c in self.CANDIDATES
        }
        best = max(self.CANDIDATES, key=lambda c: oracle_scores[c])
        assert best == "open a new account"
        assert fired.splitlines()[1] == f"1. {best}"

    def test_top_k_all_lists_everything(self):
        orch = SimpleResponseOrchestrator(self.CANDIDATES, top_k=2)
        make_agent() | orch
        fired = orch.instruct(Dialog(), "open")
        assert "open a new account" in fired and "close account" in fired

    def test_top_k_validated(self):
        with pytest.raises(ConfigError):
            SimpleResponseOrchestrator(self.CANDIDATES, top_k=3)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ConfigError):
            SimpleResponseOrchestrator([])

    def test_tie_breaks_keep_candidate_order(self):
        orch = SimpleResponseOrchestrator(["alpha beta", "gamma delta"], top_k=2)
        make_agent() | orch
        fired = orch.instruct(Dialog(), "unrelated words entirely")
        assert fired.splitlines()[1:] == ["1. alpha beta", "2. gamma delta"]


class TestInstructionList:
    def test_plan_fires_at_own_turn_indices(self):
        plan = InstructionListOrchestrator({0: "a", 2: "b"})
        agent = Agent(ScriptedBackend(["x1", "x2", "x3"]), ALICE) | plan
        other = Agent(ScriptedBackend(["y1", "y2", "y3"]), BOB)
        d = agent.dialog_with(other, max_turns=6, seed=0)
        labeled = [e for e in d.events if e.action == "instruct"]
        assert [e.text for e in labeled] == ["a", "b"]
        # fired just before Alice's turns 0 and 2 (global turns 0 and 4)
        positions = [
            sum(1 for prior in d.events[: d.events.index(e)] if prior.action == "utter")
            for e in labeled
        ]
        assert positions == [0, 4]

    def test_first_utterance_consumes_index_zero(self):
        # a fixed first utterance is not orchestrated, so index 0 never
        # fires; index 1 fires just before the agent's second turn
        plan = InstructionListOrchestrator({0: "a", 1: "b"})
        agent = Agent(ScriptedBackend(["x1", "x2"]), ALICE, first_utterance="Hi") | plan
        other = Agent(ScriptedBackend(["y1", "y2"]), BOB)
        d = agent.dialog_with(other, max_turns=4, seed=0)
        fired = [i for i, e in enumerate(d.events) if e.action == "instruct"]
        assert [d.events[i].text for i in fired] == ["b"]
        utters_before = [e for e in d.events[: fired[0]] if e.action == "utter"]
        assert [e.agent for e in utters_before] == ["Alice", "Bob"]
        assert d.events[fired[0] + 1].agent == "Alice"

    def test_empty_plan_never_fires(self):
        agent = make_agent() | InstructionListOrchestrator({})
        for _ in range(4):
            _, events = agent.respond("hi", Dialog())
            assert events == []

    def test_single_entry_plan(self):
        plan = InstructionListOrchestrator({0: "Greet warmly"})
        agent = make_agent() | plan
        assert plan.instruct(Dialog(), None) == "Greet warmly"
        assert plan.instruct(dialog_of_length(2), "x") is None

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigError):
            InstructionListOrchestrator({-1: "x"})


class TestComposition:
    def test_event_order_matches_attachment_order(self):
        for seed in range(20):
            a = Agent(ScriptedBackend(["one", "two [END]"]), ALICE)
            a = a | SimpleReflexOrchestrator(lambda _: True, "first")
            a = a | SimpleReflexOrchestrator(lambda _: True, "second")
            b = Agent(ScriptedBackend(["mid"]), BOB)
            d = a.dialog_with(b, seed=seed)
            per_turn = [e.text for e in d.events if e.action == "instruct"]
            assert per_turn == ["first", "second", "first", "second"]
