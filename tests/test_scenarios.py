"""Tests for scenario schema, dataset access, descriptions, and agent building."""

from __future__ import annotations

import json

import pytest

from dialogforge import (
    Capability,
    Flowchart,
    InvariantViolation,
    NotADirectory,
    NotFound,
    ParseError,
    Scenario,
    ScriptedBackend,
    agents_for_scenario,
    describe_flowchart,
    describe_scenario,
    load_dialog,
    load_flowchart,
    load_scenario,
    set_dataset_root,
)
from dialogforge.flow import flow_to_dot
from dialogforge.scenarios import ChartEdge, ChartNode, flowchart_flow_graph

BANKING = Scenario(
    domains=("banking",),
    user_task="Open a new account",
    wizard_task="Assist with account opening",
    happy=True,
    multi_task=False,
    capabilities=(Capability(task="open_account", domain="banking"),),
)


class TestScenarioSchema:
    def test_capitalized_keys_normalized(self, star_root):
        data = json.loads((star_root / "scenarios" / "101.json").read_text())
        scenario = Scenario.from_dict(data)
        assert scenario == BANKING

    def test_lowercase_keys_accepted(self):
        scenario = Scenario.from_dict(
            {"domains": ["banking"], "userTask": "t", "wizardTask": "w"}
        )
        assert scenario.domains == ("banking",)
        assert scenario.user_task == "t"

    def test_capability_outside_domains_rejected(self):
        with pytest.raises(InvariantViolation):
            Scenario(domains=("banking",),
                     capabilities=(Capability(task="x", domain="weather"),))

    def test_empty_domains_rejected(self):
        with pytest.raises(InvariantViolation):
            Scenario(domains=())

    def test_to_dict_round_trip(self):
        assert Scenario.from_dict(BANKING.to_dict()) == BANKING


class TestDatasetRoot:
    def test_valid_root(self, star_root):
        root = set_dataset_root(star_root)
        assert load_dialog(root, 101) is not None

    def test_missing_dir(self, tmp_path):
        with pytest.raises(NotADirectory):
            set_dataset_root(tmp_path / "nope")

    def test_relative_path_resolved(self, star_root, monkeypatch):
        monkeypatch.chdir(star_root.parent)
        root = set_dataset_root("star")
        assert root.path == star_root.resolve()

    def test_load_dialog_attaches_scenario(self, star_root):
        dialog = load_dialog(set_dataset_root(star_root), 101)
        assert dialog.scenario["Domains"] == ["banking"]
        dialog.validate()

    def test_load_dialog_not_found(self, star_root):
        with pytest.raises(NotFound):
            load_dialog(set_dataset_root(star_root), 999)

    def test_loop_over_fixture_ids(self, star_root):
        root = set_dataset_root(star_root)
        for dialog_id in [101, 102, 103]:
            dialog = load_dialog(root, dialog_id)
            assert dialog.id == dialog_id

    def test_load_scenario_not_found(self, star_root):
        with pytest.raises(NotFound):
            load_scenario(set_dataset_root(star_root), 999)

    def test_corrupt_dialogue_raises_parse_error(self, tmp_path):
        (tmp_path / "dialogues").mkdir()
        (tmp_path / "dialogues" / "1.json").write_text("{broken")
        with pytest.raises(ParseError):
            load_dialog(set_dataset_root(tmp_path), 1)

    def test_non_utf8_dialogue_raises_parse_error(self, tmp_path):
        (tmp_path / "dialogues").mkdir()
        (tmp_path / "dialogues" / "1.json").write_bytes(b"\xff\xfe{}")
        with pytest.raises(ParseError):
            load_dialog(set_dataset_root(tmp_path), 1)


class TestDescribeScenario:
    def test_contains_domain_and_task(self):
        text = describe_scenario(BANKING)
        assert "banking" in text
        assert "Open a new account" in text
        assert "can open_account in banking" in text

    def test_happy_and_single_task_sentences(self):
        text = describe_scenario(BANKING)
        assert "cooperative (happy path)" in text
        assert "single task" in text

    def test_unhappy_multitask_variants(self):
        scenario = Scenario(domains=("banking",), happy=False, multi_task=True)
        text = describe_scenario(scenario)
        assert "uncooperative" in text
        assert "multiple tasks" in text

    def test_no_capability_sentence_when_empty(self):
        text = describe_scenario(Scenario(domains=("banking",)))
        assert "can " not in text

    def test_deterministic(self):
        assert describe_scenario(BANKING) == describe_scenario(BANKING)


def linear_chart() -> Flowchart:
    return Flowchart(
        task="t",
        nodes=(ChartNode("a", "Ask the question", entry=True),
               ChartNode("b", "Give the answer")),
        edges=(ChartEdge("a", "b"),),
    )


class TestFlowchart:
    def test_exactly_one_entry_required(self):
        with pytest.raises(InvariantViolation):
            Flowchart(task="t", nodes=(ChartNode("a", "A"),), edges=())

    def test_dangling_edge_rejected(self):
        with pytest.raises(InvariantViolation):
            Flowchart(task="t", nodes=(ChartNode("a", "A", entry=True),),
                      edges=(ChartEdge("a", "zzz"),))

    def test_two_node_chart_renders_numbered_steps(self):
        assert describe_flowchart(linear_chart()) == "1. Ask the question\n2. Give the answer"

    def test_branch_labels_present(self, star_root):
        chart = load_flowchart(set_dataset_root(star_root), "banking", "open_account")
        text = describe_flowchart(chart)
        assert "identity confirmed" in text
        assert "details incomplete" in text
        assert "Open the account" in text

    def test_cycle_with_exit_renders_each_step_once(self):
        chart = Flowchart(
            task="loop",
            nodes=(ChartNode("a", "Ask for details", entry=True),
                   ChartNode("b", "Check the details"),
                   ChartNode("c", "Finish up")),
            edges=(ChartEdge("a", "b"),
                   ChartEdge("b", "a", label="details invalid"),
                   ChartEdge("b", "c", label="details valid")),
        )
        expected = (
            "1. Ask for details\n"
            "2. Check the details (when details invalid: back to step 1)\n"
            "3. Finish up (when details valid)"
        )
        assert describe_flowchart(chart) == expected

    def test_cycle_without_exit_falls_back_to_edge_list(self):
        chart = Flowchart(
            task="spin",
            nodes=(ChartNode("a", "A", entry=True), ChartNode("b", "B")),
            edges=(ChartEdge("a", "b"), ChartEdge("b", "a")),
        )
        text = describe_flowchart(chart)
        assert "1." not in text
        assert "A -> B" in text and "B -> A" in text

    def test_flowchart_not_found(self, star_root):
        with pytest.raises(NotFound):
            load_flowchart(set_dataset_root(star_root), "banking", "close_account")

    def test_dot_adapter(self):
        dot = flow_to_dot(flowchart_flow_graph(linear_chart()))
        assert "START" in dot and "END" in dot
        assert "Ask the question" in dot
        assert '"a" -> "b"' in dot

    def test_describe_deterministic(self, star_root):
        chart = load_flowchart(set_dataset_root(star_root), "banking", "open_account")
        assert describe_flowchart(chart) == describe_flowchart(chart)


class TestAgentsForScenario:
    def test_wizard_rules_mention_capability(self):
        system_agent, _ = agents_for_scenario(BANKING, ScriptedBackend(["x"]))
        assert "open_account" in system_agent.persona.rules
        assert "Assist with account opening" in system_agent.persona.rules

    def test_user_circumstances_carry_task(self):
        _, user_agent = agents_for_scenario(BANKING, ScriptedBackend(["x"]))
        assert "Open a new account" in user_agent.persona.circumstances

    def test_unhappy_user_personality(self):
        scenario = Scenario(domains=("banking",), happy=False)
        _, user_agent = agents_for_scenario(scenario, ScriptedBackend(["x"]))
        assert "uncooperative" in user_agent.persona.personality

    def test_flowchart_summary_embedded_when_root_given(self, star_root):
        root = set_dataset_root(star_root)
        system_agent, _ = agents_for_scenario(BANKING, ScriptedBackend(["x"]), root=root)
        assert "Greet the customer" in system_agent.persona.rules

    def test_missing_flowchart_tolerated(self, star_root):
        root = set_dataset_root(star_root)
        scenario = load_scenario(root, 102)  # weather: no flowchart on disk
        system_agent, _ = agents_for_scenario(scenario, ScriptedBackend(["x"]), root=root)
        assert "check_forecast" in system_agent.persona.rules

    def test_pair_runs_to_completion(self, star_root):
        backend = ScriptedBackend(
            ["Hello, how can I help?", "I need an account.", "Done! [END]"]
        )
        system_agent, user_agent = agents_for_scenario(BANKING, backend)
        dialog = system_agent.dialog_with(user_agent, seed=0)
        dialog.validate()
        assert [t.speaker for t in dialog.turns] == ["System", "User", "System"]
