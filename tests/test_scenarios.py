"""Tests for scenario schema, dataset access, descriptions, and agent building."""

from __future__ import annotations

import hashlib
import json
import random
import re
import shutil
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
from dialogforge.flow import END_NODE, START_NODE, flow_to_dot, validate_flow_graph
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

    @pytest.mark.parametrize("data, keys", [
        ({"Domains": ["a"], "Happy": True, "happy": False}, "['Happy', 'happy']"),
        ({"Domains": ["a"], "UserTask": "t", "userTask": "u"}, "['UserTask', 'userTask']"),
        ({"Domains": ["a"], "domains": ["b"]}, "['Domains', 'domains']"),
        ({"Domains": ["a"], "WizardCapabilities": [{"Task": "t", "task": "u", "Domain": "a"}]},
         "['Task', 'task']"),
    ], ids=["Happy", "UserTask", "Domains", "capability-Task"])
    def test_two_spellings_of_one_field_rejected(self, tmp_path, data, keys):
        with pytest.raises(InvariantViolation, match=re.escape(keys)):
            Scenario.from_dict(data)
        (tmp_path / "scenarios").mkdir()
        (tmp_path / "scenarios" / "7.json").write_text(json.dumps(data))
        with pytest.raises(ParseError, match=re.escape(f"scenario 7: keys {keys}")):
            load_scenario(set_dataset_root(tmp_path), 7)

    @pytest.mark.parametrize("capability", [{"Task": "", "Domain": "a"}, {"Task": "t", "Domain": ""}],
                             ids=["Task", "Domain"])
    def test_empty_capability_field_rejected(self, capability):
        with pytest.raises(InvariantViolation, match="capability needs Task and Domain"):
            Scenario.from_dict({"Domains": ["a"], "WizardCapabilities": [capability]})

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
        assert root == star_root.resolve()

    def test_load_dialog_attaches_scenario(self, star_root):
        dialog = load_dialog(set_dataset_root(star_root), 101)
        assert dialog.scenario["Domains"] == ["banking"]
        dialog.validate()

    def root_with_scenario(self, tmp_path, star_root, text: str) -> Path:
        """A dataset root holding the fixture dialogue 101 and ``text`` as its scenario."""
        for folder in ("dialogues", "scenarios"):
            (tmp_path / folder).mkdir()
        shutil.copy(star_root / "dialogues" / "101.json", tmp_path / "dialogues")
        (tmp_path / "scenarios" / "101.json").write_text(text)
        return set_dataset_root(tmp_path)

    def test_load_dialog_rejects_a_broken_scenario(self, tmp_path, star_root):
        root = self.root_with_scenario(tmp_path, star_root, '{"userTask": "x", "Happy": "no"}')
        with pytest.raises(ParseError, match="^scenario 101: "):
            load_dialog(root, 101)

    def test_load_dialog_attaches_canonical_keys(self, tmp_path, star_root):
        text = json.dumps({"domains": ["banking"], "userTask": "t", "happy": False})
        dialog = load_dialog(self.root_with_scenario(tmp_path, star_root, text), 101)
        assert dialog.scenario == {"Domains": ["banking"], "UserTask": "t", "WizardTask": "",
                                   "Happy": False, "MultiTask": False, "WizardCapabilities": []}

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


class TestDatasetErrorMessages:
    """The exact text of each dataset error; star-run prints it after ``error: ``."""

    @pytest.mark.parametrize("load, message", [
        (lambda root: load_dialog(root, 999), "no dialogue with id 999 under {root}"),
        (lambda root: load_scenario(root, 999), "no scenario with id 999 under {root}"),
        (lambda root: load_flowchart(root, "d", "t"), "no flowchart for d/t under {root}"),
    ], ids=["dialogue", "scenario", "flowchart"])
    def test_not_found(self, star_root, load, message):
        with pytest.raises(NotFound) as info:
            load(set_dataset_root(star_root))
        assert str(info.value) == message.format(root=star_root.resolve())

    @pytest.mark.parametrize("text, message", [
        ('{"Domains": []}', "scenario 7: scenario needs at least one domain"),
        ('{"Domains": "banking"}', "scenario 7: scenario: missing or invalid 'Domains' field"),
    ])
    def test_scenario_parse_error_prefix(self, tmp_path, text, message):
        (tmp_path / "scenarios").mkdir()
        (tmp_path / "scenarios" / "7.json").write_text(text)
        with pytest.raises(ParseError) as info:
            load_scenario(set_dataset_root(tmp_path), 7)
        assert str(info.value) == message

    def test_flowchart_parse_error_prefix(self, tmp_path):
        (tmp_path / "flowcharts" / "d").mkdir(parents=True)
        (tmp_path / "flowcharts" / "d" / "t.json").write_text('{"nodes": [{"id": "a", "label": "A"}]}')
        with pytest.raises(ParseError) as info:
            load_flowchart(set_dataset_root(tmp_path), "d", "t")
        assert str(info.value) == "flowchart d/t: flowchart needs exactly one entry node, found 0"

    def test_non_object_file(self, tmp_path):
        (tmp_path / "scenarios").mkdir()
        (tmp_path / "scenarios" / "7.json").write_text("[]")
        with pytest.raises(ParseError) as info:
            load_scenario(set_dataset_root(tmp_path), 7)
        path = tmp_path.resolve() / "scenarios" / "7.json"
        assert str(info.value) == f"scenario {path} must contain a JSON object"

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(NotADirectory) as info:
            set_dataset_root(tmp_path / "nope")
        assert str(info.value) == f"{tmp_path / 'nope'} is not a readable directory"


class TestDatasetPathComponents:
    """A capability's Domain and Task each name one path component under flowcharts/."""

    @pytest.mark.parametrize("domain, task", [
        ("../../outside", "leak"), ("..", "t"), ("d", ".."),
        ("a/b", "t"), ("d", "x/y"), ("a\\b", "t"), ("d", "x\\y"), ("/etc", "t"),
    ])
    def test_non_component_names_no_flowchart(self, tmp_path, monkeypatch, domain, task):
        root = set_dataset_root(tmp_path)

        def touched(path):
            raise AssertionError(f"file system touched for {path}")

        with monkeypatch.context() as patch:
            patch.setattr(Path, "is_file", touched)
            patch.setattr(Path, "read_text", touched)
            with pytest.raises(NotFound) as info:
                load_flowchart(root, domain, task)
        assert str(info.value) == f"no flowchart for {domain}/{task} under {tmp_path.resolve()}"

    def test_chart_outside_root_not_in_wizard_rules(self, tmp_path, star_root):
        (tmp_path / "dataset" / "flowcharts").mkdir(parents=True)
        (tmp_path / "outside").mkdir()
        chart = star_root / "flowcharts" / "banking" / "open_account.json"
        (tmp_path / "outside" / "leak.json").write_text(chart.read_text())
        scenario = Scenario(domains=("../../outside",),
                            capabilities=(Capability(task="leak", domain="../../outside"),))
        root = set_dataset_root(tmp_path / "dataset")
        system_agent, _ = agents_for_scenario(scenario, ScriptedBackend(["x"]), root=root)
        assert system_agent.persona.rules == "You can help with these tasks: leak (../../outside)."


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

    def test_duplicate_node_id_rejected(self):
        with pytest.raises(InvariantViolation, match="node ids must be unique"):
            Flowchart(task="t", nodes=(ChartNode("a", "A", entry=True), ChartNode("a", "B")),
                      edges=())

    def test_dangling_edge_rejected(self):
        with pytest.raises(InvariantViolation):
            Flowchart(task="t", nodes=(ChartNode("a", "A", entry=True),),
                      edges=(ChartEdge("a", "zzz"),))

    @pytest.mark.parametrize("reserved", [START_NODE, END_NODE])
    @pytest.mark.parametrize("entry", [True, False])
    def test_reserved_step_id_rejected(self, reserved, entry):
        with pytest.raises(InvariantViolation, match="reserved"):
            Flowchart(task="t",
                      nodes=(ChartNode(reserved, "Step", entry=entry),
                             ChartNode("b", "B", entry=not entry)),
                      edges=(ChartEdge(reserved, "b"),))

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

    def test_dot_escapes_quoted_step_id_on_node_and_edge_lines(self):
        chart = Flowchart(
            task="quote",
            nodes=(ChartNode('say "hi"', "Greet", entry=True), ChartNode("b", "Bye")),
            edges=(ChartEdge('say "hi"', "b"),),
        )
        lines = flow_to_dot(flowchart_flow_graph(chart)).splitlines()
        assert '  "say \\"hi\\"" [shape=box, label="Greet (1)"];' in lines
        assert '  "say \\"hi\\"" -> "b" [label="1 (1.00)"];' in lines
        assert not any('"say "hi""' in line for line in lines)

    def test_fixture_chart_graph_is_uniform_per_step(self, star_root):
        chart = load_flowchart(set_dataset_root(star_root), "banking", "open_account")
        graph = flowchart_flow_graph(chart)
        validate_flow_graph(graph)
        out_degree = Counter(edge.source for edge in chart.edges)
        by_source: dict[str, list] = {}
        for edge in graph.edges:
            by_source.setdefault(edge.source, []).append(edge)
        assert [(e.target, e.probability) for e in by_source[START_NODE]] == [("greet", 1.0)]
        for source, degree in out_degree.items():
            assert [e.probability for e in by_source[source]] == [1 / degree] * degree
        terminals = [node.id for node in chart.nodes if node.id not in out_degree]
        assert terminals == ["confirm"]
        for node_id in terminals:
            assert [(e.target, e.probability) for e in by_source[node_id]] == [(END_NODE, 1.0)]

    def test_repeated_chart_edge_counts_twice(self):
        chart = Flowchart(
            task="twice",
            nodes=(ChartNode("a", "Ask", entry=True), ChartNode("b", "Answer"),
                   ChartNode("c", "Escalate")),
            edges=(ChartEdge("a", "b"), ChartEdge("a", "b"), ChartEdge("a", "c")),
        )
        graph = flowchart_flow_graph(chart)
        validate_flow_graph(graph)
        from_a = [(e.target, e.count, e.probability) for e in graph.edges if e.source == "a"]
        assert from_a == [("b", 2, 2 / 3), ("c", 1, 1 / 3)]

    def test_describe_deterministic(self, star_root):
        chart = load_flowchart(set_dataset_root(star_root), "banking", "open_account")
        assert describe_flowchart(chart) == describe_flowchart(chart)


def random_chart(rng: random.Random) -> Flowchart:
    """A valid chart of 1-7 steps with random, possibly cyclic or unreachable, edges."""
    ids = [f"s{i}" for i in range(rng.randint(1, 7))]
    entry = rng.choice(ids)
    edges = [
        ChartEdge(source, rng.choice(ids), rng.choice([None, "", f"case {source}{k}"]))
        for source in ids for k in range(rng.choice([0, 0, 1, 1, 2, 3]))
    ]
    nodes = [ChartNode(node_id, f"Step {node_id}", entry=node_id == entry) for node_id in ids]
    return Flowchart(task="random", nodes=nodes, edges=edges)


def reachable_steps(chart: Flowchart) -> set[str]:
    seen, frontier = set(), [chart.entry.id]
    while frontier:
        node_id = frontier.pop()
        if node_id not in seen:
            seen.add(node_id)
            frontier += [edge.target for edge in chart.edges if edge.source == node_id]
    return seen


class TestDescribeFlowchartOracle:
    """Renderings of 300 seeded random charts, pinned before the walk was rewritten."""

    DIGEST = "e450a0d9b1a116f4d1976c0be01166f084d2a3dd21f19b27add1757a45930867"

    def test_renderings_pinned(self):
        rng = random.Random(8)
        charts = [random_chart(rng) for _ in range(300)]
        renderings = [describe_flowchart(chart) for chart in charts]
        edge_lists = 0
        for chart, text in zip(charts, renderings):
            sources = {edge.source for edge in chart.edges}
            has_exit = any(node_id not in sources for node_id in reachable_steps(chart))
            assert text.startswith("1. ") == has_exit, text
            edge_lists += not has_exit
        assert 30 <= edge_lists <= 270
        digest = hashlib.sha256(json.dumps(renderings).encode("utf-8")).hexdigest()
        assert digest == self.DIGEST


def describe_flowchart_recursive(chart: Flowchart) -> str:
    """``describe_flowchart`` as first written, one recursive call per step: the
    reference for the walk with an explicit stack."""
    by_id = {node.id: node for node in chart.nodes}
    adjacency: dict[str, list[ChartEdge]] = {node.id: [] for node in chart.nodes}
    for edge in chart.edges:
        adjacency[edge.source].append(edge)
    steps: dict[str, int] = {}
    lines = []

    def visit(node_id: str, via: str | None) -> None:
        steps[node_id] = len(steps) + 1
        line = f"{steps[node_id]}. {by_id[node_id].label}"
        if via:
            line += f" (when {via})"
        index = len(lines)
        lines.append(line)
        for edge in adjacency[node_id]:
            if edge.target in steps:
                if edge.label:
                    lines[index] += f" (when {edge.label}: back to step {steps[edge.target]})"
                else:
                    lines[index] += f" (then back to step {steps[edge.target]})"
            else:
                visit(edge.target, edge.label)

    visit(chart.entry.id, None)
    if all(adjacency[node_id] for node_id in steps):
        lines = []
        for edge in chart.edges:
            suffix = f" [{edge.label}]" if edge.label else ""
            lines.append(f"{by_id[edge.source].label} -> {by_id[edge.target].label}{suffix}")
    return "\n".join(lines)


@st.composite
def drawn_charts(draw) -> Flowchart:
    """Charts of 1-8 steps with any edges: back edges, self loops, repeats, labelled
    or not, unreachable steps and cycles without an exit."""
    ids = [f"s{i}" for i in range(draw(st.integers(1, 8)))]
    entry = draw(st.sampled_from(ids))
    edge = st.builds(ChartEdge, st.sampled_from(ids), st.sampled_from(ids),
                     st.sampled_from([None, "", "ok", "retry"]))
    return Flowchart(task="drawn", edges=draw(st.lists(edge, max_size=16)),
                     nodes=[ChartNode(i, f"Step {i}", entry=i == entry) for i in ids])


@settings(max_examples=300, deadline=None)
@given(drawn_charts())
def test_describe_flowchart_equals_the_recursive_walk(chart):
    assert describe_flowchart(chart) == describe_flowchart_recursive(chart)


def test_describe_flowchart_of_a_5000_step_chain():
    ids = [f"s{i}" for i in range(5000)]
    chart = Flowchart(task="deep", edges=[ChartEdge(a, b) for a, b in zip(ids, ids[1:])],
                      nodes=[ChartNode(i, f"Step {i}", entry=i == "s0") for i in ids])
    lines = describe_flowchart(chart).split("\n")
    assert len(lines) == 5000
    assert lines[0] == "1. Step s0" and lines[-1] == "5000. Step s4999"


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
