"""Acceptance suite: one test per release criterion, printed pass/fail.

Everything runs desk-scale against scripted or local-mock backends (no
network); run with ``pytest tests/test_acceptance.py -v -s`` to see one
line per criterion.
"""

from __future__ import annotations

import random

import pytest

from dialogforge import (
    Agent,
    Dialog,
    Persona,
    SamplingParams,
    ScriptedBackend,
    HttpBackend,
    Message,
    WireError,
    build_flow_graph,
    cluster,
    deserialize_dialog,
    embed,
    read_dialog_file,
    render_dialog,
    serialize_dialog,
)
from dialogforge.cli import main
from dialogforge.flow import START_NODE, validate_flow_graph
from dialogforge.orchestrators import (
    ChangeMindOrchestrator,
    InstructionListOrchestrator,
    LengthOrchestrator,
    SimpleReflexOrchestrator,
    SimpleResponseOrchestrator,
)
from conftest import random_dialog
from helpers import (
    EagerBackend,
    ObedientBackend,
    bigram_transition_counts,
    build_action_corpus,
    oracle_cosine,
    oracle_embed,
)
from test_backends import MockServer
from test_cli import write_spec

ALICE = Persona(name="Alice", role="barista")
BOB = Persona(name="Bob", role="customer")


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


def chatty_script(n: int = 30) -> list[str]:
    return [f"utterance number {i}" for i in range(n)]


def test_criterion_01_round_trip_fidelity():
    rng = random.Random(20240501)
    for _ in range(200):
        dialog = random_dialog(rng)
        dialog.validate()
        back = deserialize_dialog(serialize_dialog(dialog, "structured"), "structured")
        assert back == dialog
        projected = deserialize_dialog(serialize_dialog(dialog, "plain"), "plain")
        assert [(t.speaker, t.text) for t in projected.turns] == [
            (t.speaker, t.text) for t in dialog.turns
        ]
    report(1, "200 randomized dialogs survive structured round trip and plain projection")


def test_criterion_02_turn_event_sync_across_orchestrator_matrix():
    matrix = [
        [],
        [("length", dict(min_turns=3, max_turns=6))],
        [("mind", dict(probability=0.7, max_times=2, reasons=["new information"]))],
        [("reflex", None)],
        [("plan", dict(plan={0: "Greet warmly", 2: "Start wrapping up"}))],
        [("suggest", dict(candidates=["open a new account", "close account"]))],
        [("length", dict(min_turns=3, max_turns=6)),
         ("mind", dict(probability=0.7, max_times=2))],
        [("length", dict(min_turns=2, max_turns=8)),
         ("mind", dict(probability=1.0, max_times=1)),
         ("plan", dict(plan={1: "Mention the weather"}))],
    ]

    def build(kind, kwargs):
        if kind == "length":
            return LengthOrchestrator(**kwargs)
        if kind == "mind":
            return ChangeMindOrchestrator(**kwargs)
        if kind == "reflex":
            return SimpleReflexOrchestrator(lambda u: "account" in u, "Stay polite.")
        if kind == "plan":
            return InstructionListOrchestrator(**kwargs)
        if kind == "suggest":
            return SimpleResponseOrchestrator(**kwargs)
        raise AssertionError(kind)

    checked = 0
    for combo in matrix:
        for seed in range(5):
            a = Agent(ScriptedBackend(chatty_script(), cycle=True), ALICE)
            b = Agent(ScriptedBackend(chatty_script(), cycle=True), BOB)
            for kind, kwargs in combo:
                a = a | build(kind, kwargs)
            dialog = a.dialog_with(b, seed=seed, max_turns=9)
            dialog.validate()  # checks the utter-subsequence/turn pairing
            utters = [e for e in dialog.events if e.action == "utter"]
            assert len(utters) == len(dialog.turns)
            assert all(e.agent == t.speaker and e.text == t.text
                       for e, t in zip(utters, dialog.turns))
            checked += 1
    report(2, f"turn/event sync held for {checked} dialogs across the orchestrator matrix")


def test_criterion_03_seed_determinism_and_stochastic_divergence():
    def run_once(seed: int) -> str:
        a = Agent(ScriptedBackend(chatty_script(), cycle=True), ALICE)
        a = a | ChangeMindOrchestrator(probability=0.5, max_times=2)
        b = Agent(ScriptedBackend(chatty_script(), cycle=True), BOB)
        return serialize_dialog(a.dialog_with(b, id=seed, seed=seed, max_turns=8))

    for seed in range(20):
        assert run_once(seed) == run_once(seed), f"seed {seed} not reproducible"

    # differing seeds must reach at least one differing transcript (compare
    # the orchestration-rendered form, which carries no seed metadata)
    transcripts = set()
    for seed in range(20):
        a = Agent(ScriptedBackend(chatty_script(), cycle=True), ALICE)
        a = a | ChangeMindOrchestrator(probability=0.5, max_times=2)
        b = Agent(ScriptedBackend(chatty_script(), cycle=True), BOB)
        dialog = a.dialog_with(b, seed=seed, max_turns=8)
        transcripts.add(render_dialog(dialog, show_orchestration=True, color=False))
    assert len(transcripts) > 1
    report(3, "20 seeds byte-identical on rerun; stochastic orchestrator diverges across seeds")


def test_criterion_04_length_orchestrator_bounds():
    for seed in range(50):
        a = Agent(EagerBackend(), ALICE) | LengthOrchestrator(min_turns=5, max_turns=10)
        b = Agent(EagerBackend(), BOB) | LengthOrchestrator(min_turns=5, max_turns=10)
        dialog = a.dialog_with(b, seed=seed)
        assert len(dialog) >= 5, f"seed {seed}: only {len(dialog)} turns"

    for seed in range(50):
        a = Agent(ObedientBackend(), ALICE) | LengthOrchestrator(min_turns=5, max_turns=10)
        b = Agent(ObedientBackend(), BOB) | LengthOrchestrator(min_turns=5, max_turns=10)
        dialog = a.dialog_with(b, seed=seed, max_turns=40)
        assert len(dialog) <= 11, f"seed {seed}: {len(dialog)} turns"
    report(4, "min=5 gives >=5 turns and max=10 gives <=11 turns over 50 seeds each")


def test_criterion_05_change_mind_bounds():
    def run(probability: float, seed: int) -> Dialog:
        mind = ChangeMindOrchestrator(
            probability=probability, max_times=2,
            reasons=["changed plans", "new information"],
        )
        a = Agent(ScriptedBackend(chatty_script(), cycle=True), ALICE) | mind
        b = Agent(ScriptedBackend(chatty_script(), cycle=True), BOB)
        return a.dialog_with(b, seed=seed, max_turns=10)

    certain = run(1.0, seed=0)
    assert len(certain) == 10
    fired = [e for e in certain.events
             if e.action == "instruct" and e.action_label == "ChangeMindOrchestrator"]
    assert len(fired) == 2

    never = run(0.0, seed=0)
    assert not [e for e in never.events if e.action == "instruct"]

    for seed in range(100):
        dialog = run(0.4, seed=seed)
        count = sum(1 for e in dialog.events
                    if e.action == "instruct"
                    and e.action_label == "ChangeMindOrchestrator")
        assert count <= 2, f"seed {seed} fired {count} times"
    report(5, "p=1 fires exactly twice, p=0 never, p=0.4 bounded by 2 over 100 seeds")


def test_criterion_06_composition_order():
    for seed in range(20):
        a = Agent(ScriptedBackend(chatty_script(), cycle=True), ALICE)
        a = a | SimpleReflexOrchestrator(lambda _: True, "first hint")
        a = a | SimpleReflexOrchestrator(lambda _: True, "second hint")
        b = Agent(ScriptedBackend(chatty_script(), cycle=True), BOB)
        dialog = a.dialog_with(b, seed=seed, max_turns=6)
        texts = [e.text for e in dialog.events if e.action == "instruct"]
        assert texts and texts == ["first hint", "second hint"] * (len(texts) // 2)
    report(6, "agent | A | B fires (A, B) per turn in all 20 seeded runs")


def test_criterion_07_instruction_list_placement():
    plan = InstructionListOrchestrator({0: "Open with a joke", 2: "Wrap it up"})
    a = Agent(ScriptedBackend(chatty_script(), cycle=True), ALICE) | plan
    b = Agent(ScriptedBackend(chatty_script(), cycle=True), BOB)
    dialog = a.dialog_with(b, seed=0, max_turns=8)

    own_turn = 0
    fired_at = []
    for event in dialog.events:
        if event.action == "instruct":
            fired_at.append(own_turn)
        elif event.action == "utter" and event.agent == "Alice":
            own_turn += 1
    assert fired_at == [0, 2]
    texts = [e.text for e in dialog.events if e.action == "instruct"]
    assert texts == ["Open with a joke", "Wrap it up"]
    report(7, "plan {0, 2} fires exactly at the owning agent's turns 0 and 2")


def test_criterion_08_simple_response_ranking_matches_oracle():
    candidates = ["open a new account", "close account"]
    query = "I want to open an account"
    orch = SimpleResponseOrchestrator(candidates, top_k=2)
    Agent(ScriptedBackend(["x"]), ALICE) | orch

    oracle_ranked = sorted(
        candidates,
        key=lambda c: -oracle_cosine(oracle_embed(query), oracle_embed(c)),
    )
    assert orch.rank(query) == oracle_ranked
    fired = orch.instruct(Dialog(), query)
    assert fired.splitlines()[1:] == [f"{i}. {c}" for i, c in enumerate(oracle_ranked, 1)]
    report(8, "suggestion ranking equals the independent hashed-TF cosine oracle")


def test_criterion_09_flow_graph_matches_bigram_oracle():
    corpus = build_action_corpus(10, seed=42)
    graph = build_flow_graph(corpus, k=6, seed=3)  # one cluster per distinct phrase
    by_id = {n.id: n for n in graph.nodes}

    def key(node_id: str):
        node = by_id[node_id]
        return (node.speaker_side, node.label)

    got = {(key(e.source), key(e.target)): e.count for e in graph.edges}
    assert got == bigram_transition_counts(corpus)
    assert sum(e.count for e in graph.edges if e.source == START_NODE) == 10
    validate_flow_graph(graph)
    report(9, "every edge count equals the bigram oracle; START out-count 10; probabilities normalized")


def test_criterion_10_clustering_sanity():
    vectors = [embed("open a new account")] * 6 + [embed("close my account")] * 6
    model = cluster(vectors, k=2, seed=0)
    groups = {tuple(model.assignments[:6]), tuple(model.assignments[6:])}
    assert all(len(set(g)) == 1 for g in groups)
    assert len({g[0] for g in groups}) == 2

    again = cluster(vectors, k=2, seed=0)
    assert again.assignments == model.assignments
    report(10, "duplicated groups split into pure clusters; fixed seed reproduces assignments")


def test_criterion_11_batch_workflow(runner, tmp_path):
    spec = write_spec(tmp_path / "spec.json", seed=100)
    result = runner.invoke(main, ["batch", "--spec", str(spec), "-n", "5"])
    assert result.exit_code == 0, result.output
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == [f"dialog_{i:03d}.json" for i in range(5)]
    for i in range(5):
        dialog = read_dialog_file(tmp_path / "out" / f"dialog_{i:03d}.json")
        dialog.validate()
        assert dialog.id == i
        assert dialog.seed == 100 + i
    report(11, "batch n=5 emits dialog_000..dialog_004 with ids 0-4 and seeds base+0..4")


def test_criterion_12_scenario_pipeline(runner, tmp_path, star_root):
    spec = write_spec(tmp_path / "spec.json")
    result = runner.invoke(main, [
        "star-run", "--root", str(star_root), "--spec", str(spec),
        "101", "102", "103",
    ])
    assert result.exit_code == 0, result.output
    tasks = {
        101: ("Assist with account opening", "Open a new account"),
        102: ("Provide a weather forecast", "Find out whether it will rain"),
        103: ("Arrange the ride and handle payment", "Book a ride to the airport"),
    }
    for dialog_id, (wizard_task, user_task) in tasks.items():
        dialog = read_dialog_file(tmp_path / "out" / f"star_dialog_{dialog_id}.json")
        dialog.validate()
        assert wizard_task in dialog.personas["System"]["rules"]
        assert user_task in dialog.personas["User"]["circumstances"]
    report(12, "star-run over fixture ids 101-103 emits valid files reflecting both tasks")


def test_criterion_13_filter_workflow(runner, tmp_path):
    from test_cli import build_corpus

    corpus = build_corpus(tmp_path, runner)
    result = runner.invoke(main, ["filter", str(corpus / "dialog_*.json"),
                                  "--min-turns", "6"])
    assert result.exit_code == 0
    printed = [line for line in result.output.splitlines()
               if line.endswith(".json") and "dialog_" in line]
    lengths = {path: len(read_dialog_file(path)) for path in
               sorted(str(p) for p in corpus.glob("dialog_*.json"))}
    expected = [path for path, n in lengths.items() if n >= 6]
    assert len(expected) == 3
    assert printed == expected
    assert "Found 3 dialogues with at least 6 turns." in result.output
    report(13, "filter --min-turns 6 prints exactly the 3 qualifying paths of 5")


def test_criterion_14_wire_contract():
    server = MockServer()
    try:
        backend = HttpBackend(server.url, "test-model", api_key="k")
        messages = [Message("system", "sys"), Message("user", "hi")]

        server.behaviors = [("ok", "Hello")]
        assert backend.complete(messages, SamplingParams(seed=7)) == "Hello"
        body = server.requests[-1]["body"]
        assert set(body) == {"model", "messages", "temperature", "max_tokens", "seed"}
        assert body["seed"] == 7
        assert body["model"] == "test-model"

        server.behaviors = [("ok", "NoSeed")]
        backend.complete(messages, SamplingParams())
        assert set(server.requests[-1]["body"]) == {
            "model", "messages", "temperature", "max_tokens",
        }

        server.behaviors = [("status", 500)]
        before = len(server.requests)
        with pytest.raises(WireError) as excinfo:
            backend.complete(messages, SamplingParams())
        assert excinfo.value.status == 500
        assert len(server.requests) == before + 1  # no retry on HTTP errors

        server.behaviors = [("drop",), ("ok", "Recovered")]
        before = len(server.requests)
        assert backend.complete(messages, SamplingParams()) == "Recovered"
        assert len(server.requests) == before + 2  # exactly one retry
    finally:
        server.close()
    report(14, "wire body shape exact, seed propagated, 500 -> WireError, one transport retry")
