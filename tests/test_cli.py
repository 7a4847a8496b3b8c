"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import dialogforge.cli as cli
from dialogforge import Dialog, read_dialog_file, serialize_dialog
from dialogforge.cli import main
from dialogforge.seeding import derive_seed
from helpers import invoke

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = Path(__file__).parent / "fixtures"

# a script without the end marker, so only the turn cap ends a dialog
ENDLESS = {"scripted": ["Hi there.", "Hello.", "How are you?", "Fine, thanks."]}


def write_spec(path: Path, **overrides) -> Path:
    spec = {
        "backend": {"scripted": [
            "Hi, what can I get you?",
            "A flat white, please.",
            "Coming right up!",
            "Thanks so much. [END]",
        ]},
        "personas": {
            "Alice": {"role": "barista", "personality": "cheerful"},
            "Bob": {"role": "customer"},
        },
        "orchestrators": [],
        "seed": 1,
        "maxTurns": 12,
        "outputDir": str(path.parent / "out"),
    }
    spec.update(overrides)
    path.write_text(json.dumps(spec, indent=2))
    return path


@pytest.fixture
def spec_path(tmp_path):
    return write_spec(tmp_path / "spec.json")


class TestGenerate:
    def test_writes_structured_file(self, runner, spec_path, tmp_path):
        result = runner.invoke(main, ["generate", "--spec", str(spec_path)])
        assert result.exit_code == 0, result.output
        dialog = read_dialog_file(tmp_path / "out" / "dialog_000.json")
        dialog.validate()
        assert dialog.id == 0
        assert dialog.seed == 1

    def test_print_renders_to_stdout(self, runner, spec_path):
        result = runner.invoke(main, ["generate", "--spec", str(spec_path), "--print"])
        assert result.exit_code == 0
        assert "Alice: Hi, what can I get you?" in result.output

    def test_orchestrator_events_in_output(self, runner, tmp_path):
        spec = write_spec(
            tmp_path / "spec.json",
            orchestrators=[
                {"agent": "Alice", "type": "length",
                 "params": {"min": 10, "max": 15}},
                {"agent": "Alice", "type": "change_mind",
                 "params": {"probability": 1.0,
                            "reasons": ["changed plans", "new information"],
                            "maxTimes": 2}},
            ],
        )
        result = runner.invoke(main, ["generate", "--spec", str(spec)])
        assert result.exit_code == 0, result.output
        dialog = read_dialog_file(tmp_path / "out" / "dialog_000.json")
        labels = {e.action_label for e in dialog.events if e.action == "instruct"}
        assert "LengthOrchestrator" in labels
        assert "ChangeMindOrchestrator" in labels

    def test_deterministic_across_runs(self, runner, spec_path, tmp_path):
        runner.invoke(main, ["generate", "--spec", str(spec_path)])
        first = (tmp_path / "out" / "dialog_000.json").read_bytes()
        runner.invoke(main, ["generate", "--spec", str(spec_path)])
        assert (tmp_path / "out" / "dialog_000.json").read_bytes() == first

    def test_negative_id_exits_1_before_any_completion(self, runner, wire_server, wire_spec):
        result = runner.invoke(main, ["generate", "--spec", str(wire_spec), "--id", "-1"])
        assert result.exit_code == 1
        assert result.stderr == "error: dialog id must be non-negative\n"
        assert wire_server.requests == []

    def test_malformed_spec_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["generate", "--spec", str(bad)])
        assert result.exit_code == 1

    @pytest.mark.parametrize("field", ["seed", "maxTurns"])
    def test_boolean_integer_field_exits_1(self, runner, tmp_path, field):
        # a boolean seed would be written as "seed": true, which the parser rejects
        spec = write_spec(tmp_path / "spec.json", **{field: True})
        result = runner.invoke(main, ["generate", "--spec", str(spec)])
        assert result.exit_code == 1
        assert not (tmp_path / "out").exists()

    def test_missing_spec_exits_1(self, runner, tmp_path):
        result = runner.invoke(main, ["generate", "--spec", str(tmp_path / "nope.json")])
        assert result.exit_code == 1

    def test_both_backend_variants_rejected(self, runner, tmp_path):
        spec = write_spec(tmp_path / "spec.json",
                          backend={"scripted": ["x"], "baseUrl": "http://x", "model": "m"})
        result = runner.invoke(main, ["generate", "--spec", str(spec)])
        assert result.exit_code == 1

    def test_backend_exhaustion_exits_2(self, runner, tmp_path):
        spec = write_spec(tmp_path / "spec.json",
                          backend={"scripted": ["only one line"], "cycle": False})
        result = runner.invoke(main, ["generate", "--spec", str(spec)])
        assert result.exit_code == 2

    def test_max_turns_flag_caps_dialog(self, runner, tmp_path):
        spec = write_spec(tmp_path / "spec.json", backend=ENDLESS)
        result = runner.invoke(main, ["generate", "--spec", str(spec), "--max-turns", "3"])
        assert result.exit_code == 0, result.output
        assert len(read_dialog_file(tmp_path / "out" / "dialog_000.json")) == 3
        runner.invoke(main, ["generate", "--spec", str(spec), "--id", "1"])
        assert len(read_dialog_file(tmp_path / "out" / "dialog_001.json")) == 12

    def test_max_turns_zero_exits_1(self, runner, spec_path, tmp_path):
        for value in ("0", "-3"):
            result = runner.invoke(main, ["generate", "--spec", str(spec_path),
                                          "--max-turns", value])
            assert result.exit_code == 1
            assert result.output == "error: '--max-turns' must be a positive integer\n"
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"maxTurns": 0}, "'maxTurns' must be a positive integer"),
        # port 9 on the loopback: a spec accepted by mistake fails fast with exit 2
        ({"backend": {"baseUrl": "http://127.0.0.1:9/v1"}}, "no model name"),
        ({"orchestrators": [{"type": "instruction_list", "params": {"plan": {"x": "Hi"}}}]},
         "plan keys must be decimal turn indices"),
        ({"orchestrators": [{"type": "instruction_list",
                             "params": {"plan": {"0": "a", "00": "b"}}}]},
         "plan keys must be decimal turn indices, each once, got ['0', '00']"),
        ({"personas": {"Alice": {}}}, "exactly two personas, found 1"),
        ({"personas": {"Alice": {}, "Bob": {}, "Carol": {}}}, "exactly two personas, found 3"),
    ], ids=["maxTurns-zero", "wire-without-model", "plan-key-not-index",
            "plan-keys-one-index", "one-persona", "three-personas"])
    def test_invalid_spec_value_exits_1(self, runner, tmp_path, overrides, message):
        spec = write_spec(tmp_path / "spec.json", **overrides)
        result = runner.invoke(main, ["generate", "--spec", str(spec)])
        assert result.exit_code == 1
        assert result.output.startswith("error: ")
        assert message in result.output
        assert not (tmp_path / "out").exists()

    def test_unknown_persona_field_exits_1(self, runner, tmp_path):
        spec = write_spec(tmp_path / "spec.json", personas={
            "Alice": {"role": "barista", "mood": "sunny"},
            "Bob": {"name": "ignored", "role": "customer"},
        })
        result = runner.invoke(main, ["generate", "--spec", str(spec)])
        assert result.exit_code == 1
        assert "persona 'Alice' has unknown fields ['mood']" in result.output

    def test_unknown_orchestrator_type_exits_1(self, runner, tmp_path):
        spec = write_spec(tmp_path / "spec.json",
                          orchestrators=[{"type": "mystery", "params": {}}])
        result = runner.invoke(main, ["generate", "--spec", str(spec)])
        assert result.exit_code == 1


class TestBatch:
    def test_five_files_with_sequential_ids_and_seeds(self, runner, spec_path, tmp_path):
        result = runner.invoke(main, ["batch", "--spec", str(spec_path), "-n", "5"])
        assert result.exit_code == 0, result.output
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == [f"dialog_{i:03d}.json" for i in range(5)]
        for i in range(5):
            dialog = read_dialog_file(tmp_path / "out" / f"dialog_{i:03d}.json")
            dialog.validate()
            assert dialog.id == i
            assert dialog.seed == 1 + i

    def test_n_one_equals_generate(self, runner, tmp_path):
        spec_a = write_spec(tmp_path / "a.json", outputDir=str(tmp_path / "out_a"))
        spec_b = write_spec(tmp_path / "b.json", outputDir=str(tmp_path / "out_b"))
        runner.invoke(main, ["batch", "--spec", str(spec_a), "-n", "1"])
        runner.invoke(main, ["generate", "--spec", str(spec_b)])
        assert (tmp_path / "out_a" / "dialog_000.json").read_bytes() == \
               (tmp_path / "out_b" / "dialog_000.json").read_bytes()

    def test_rerun_byte_identical(self, runner, spec_path, tmp_path):
        runner.invoke(main, ["batch", "--spec", str(spec_path), "-n", "3"])
        snapshot = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        runner.invoke(main, ["batch", "--spec", str(spec_path), "-n", "3"])
        assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == snapshot

    def test_unwritable_output_names_failed_index(self, runner, spec_path, tmp_path):
        (tmp_path / "out" / "dialog_001.json").mkdir(parents=True)
        result = runner.invoke(main, ["batch", "--spec", str(spec_path), "-n", "3"])
        assert result.exit_code == 1
        assert "error: dialog 1 failed: " in result.output
        assert (tmp_path / "out" / "dialog_000.json").is_file()
        assert not (tmp_path / "out" / "dialog_002.json").exists()

    def test_max_turns_flag_caps_every_dialog(self, runner, tmp_path):
        spec = write_spec(tmp_path / "spec.json", backend=ENDLESS)
        result = runner.invoke(main, ["batch", "--spec", str(spec), "-n", "3",
                                      "--max-turns", "3"])
        assert result.exit_code == 0, result.output
        paths = sorted((tmp_path / "out").iterdir())
        assert [len(read_dialog_file(path)) for path in paths] == [3, 3, 3]

    def test_max_turns_zero_exits_1(self, runner, spec_path, tmp_path):
        # rejected like the spec's maxTurns, before a pool or backend is built
        for value in ("0", "-3"):
            result = runner.invoke(main, ["batch", "--spec", str(spec_path), "-n", "2",
                                          "--max-turns", value])
            assert result.exit_code == 1
            assert result.output == "error: '--max-turns' must be a positive integer\n"
            assert not (tmp_path / "out").exists()

    def test_backend_exhaustion_names_index_exits_2(self, runner, tmp_path):
        spec = write_spec(tmp_path / "spec.json",
                          backend={"scripted": ["only one line"], "cycle": False})
        result = runner.invoke(main, ["batch", "--spec", str(spec), "-n", "3"])
        assert result.exit_code == 2
        assert result.output.startswith("error: dialog 0 failed: scripted backend exhausted")
        assert not (tmp_path / "out").exists()

    def test_empty_first_utterance_names_persona_exits_1(self, runner, tmp_path):
        for first in ("", "\n"):
            spec = write_spec(tmp_path / "spec.json", personas={
                "Alice": {"role": "barista"}, "Bob": {"firstUtterance": first}})
            result = runner.invoke(main, ["batch", "--spec", str(spec), "-n", "2"])
            assert result.exit_code == 1
            assert result.output == (
                "error: dialog 0 failed: persona 'Bob' has a first utterance with no text\n")
            assert not (tmp_path / "out").exists()

    def test_first_utterance_of_the_marker_alone_writes_one_turn(self, runner, tmp_path):
        spec = write_spec(tmp_path / "spec.json", personas={
            "Alice": {"role": "barista", "firstUtterance": "[END]"}, "Bob": {}})
        result = runner.invoke(main, ["batch", "--spec", str(spec), "-n", "1"])
        assert result.exit_code == 0, result.output
        dialog = read_dialog_file(tmp_path / "out" / "dialog_000.json")
        assert [(turn.speaker, turn.text) for turn in dialog.turns] == [("Alice", "")]

    def test_reply_with_no_text_exits_2(self, runner, tmp_path):
        spec = write_spec(tmp_path / "spec.json", backend={"scripted": ["Hi", "\n", "ok"]})
        result = runner.invoke(main, ["batch", "--spec", str(spec), "-n", "2"])
        assert result.exit_code == 2
        assert result.output == (
            "error: dialog 0 failed: reply with no text from backend 'scripted' to 'Bob'\n")
        assert not (tmp_path / "out").exists()

    def test_zero_count_rejected(self, runner, spec_path):
        result = runner.invoke(main, ["batch", "--spec", str(spec_path), "-n", "0"])
        assert result.exit_code == 1


class TestStarRun:
    def test_three_fixture_ids(self, runner, spec_path, star_root, tmp_path):
        result = runner.invoke(main, [
            "star-run", "--root", str(star_root), "--spec", str(spec_path),
            "101", "102", "103",
        ])
        assert result.exit_code == 0, result.output
        for dialog_id in (101, 102, 103):
            dialog = read_dialog_file(tmp_path / "out" / f"star_dialog_{dialog_id}.json")
            dialog.validate()
            assert dialog.id == dialog_id
            assert set(dialog.personas) == {"System", "User"}

    def test_ids_around_options(self, runner, spec_path, star_root, tmp_path):
        result = runner.invoke(main, ["star-run", "101", "--root", str(star_root),
                                      "--spec", str(spec_path), "102"])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "star_dialog_101.json", "star_dialog_102.json"]

    def test_personas_reflect_scenario_tasks(self, runner, spec_path, star_root, tmp_path):
        runner.invoke(main, ["star-run", "--root", str(star_root),
                             "--spec", str(spec_path), "101"])
        dialog = read_dialog_file(tmp_path / "out" / "star_dialog_101.json")
        assert "Assist with account opening" in dialog.personas["System"]["rules"]
        assert "Open a new account" in dialog.personas["User"]["circumstances"]

    def test_missing_id_reported_others_processed(self, runner, spec_path, star_root, tmp_path):
        result = runner.invoke(main, [
            "star-run", "--root", str(star_root), "--spec", str(spec_path),
            "101", "999", "103",
        ])
        assert result.exit_code == 1
        assert (tmp_path / "out" / "star_dialog_101.json").exists()
        assert (tmp_path / "out" / "star_dialog_103.json").exists()
        assert not (tmp_path / "out" / "star_dialog_999.json").exists()
        assert "999" in result.output

    def test_non_object_flowchart_reported_others_processed(self, runner, spec_path,
                                                            star_root, tmp_path):
        root = tmp_path / "root"
        shutil.copytree(star_root, root)
        (root / "flowcharts" / "weather").mkdir()
        (root / "flowcharts" / "weather" / "check_forecast.json").write_text("[]")
        result = runner.invoke(main, [
            "star-run", "--root", str(root), "--spec", str(spec_path),
            "101", "102", "103",
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert (tmp_path / "out" / "star_dialog_101.json").exists()
        assert (tmp_path / "out" / "star_dialog_103.json").exists()
        assert not (tmp_path / "out" / "star_dialog_102.json").exists()
        assert "error: scenario 102: " in result.output

    def test_unwritable_output_reported_others_processed(self, runner, spec_path,
                                                        star_root, tmp_path):
        (tmp_path / "out" / "star_dialog_102.json").mkdir(parents=True)
        result = runner.invoke(main, [
            "star-run", "--root", str(star_root), "--spec", str(spec_path),
            "101", "102", "103",
        ])
        assert result.exit_code == 1
        assert (tmp_path / "out" / "star_dialog_101.json").is_file()
        assert (tmp_path / "out" / "star_dialog_103.json").is_file()
        assert result.output.count("error: scenario 102: ") == 1

    @pytest.mark.parametrize("ids", [["101", "999", "102", "103"],
                                     ["999", "101", "102", "103"]])
    def test_backend_and_input_failures_exit_2(self, runner, spec_path, star_root,
                                               tmp_path, monkeypatch, ids):
        # the backend of scenario 101 holds one line and does not cycle
        make_backend = cli.make_backend
        calls = []

        def first_backend_exhausts(spec, *args, **kwargs):
            if not calls:
                spec = replace(spec, backend={"scripted": ["only one line"], "cycle": False})
            calls.append(spec)
            return make_backend(spec, *args, **kwargs)

        monkeypatch.setattr(cli, "make_backend", first_backend_exhausts)
        result = runner.invoke(main, ["star-run", "--root", str(star_root),
                                      "--spec", str(spec_path), *ids])
        assert result.exit_code == 2
        assert len(calls) == 3  # a missing id builds no backend
        assert result.output.count("error: scenario 101: scripted backend exhausted") == 1
        assert result.output.count("error: scenario 999: ") == 1
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "star_dialog_102.json", "star_dialog_103.json"]

    def test_orchestrator_naming_undefined_persona_ignored(self, runner, star_root,
                                                           tmp_path):
        spec = write_spec(tmp_path / "spec.json", orchestrators=[
            {"type": "length", "agent": "Nobody", "params": {"min": 2, "max": 4}}])
        result = runner.invoke(main, ["star-run", "--root", str(star_root),
                                      "--spec", str(spec), "101"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "star_dialog_101.json").is_file()
        for command in (["generate"], ["batch", "-n", "2"]):
            result = runner.invoke(main, [*command, "--spec", str(spec)])
            assert result.exit_code == 1
            assert "orchestrator references unknown persona 'Nobody'" in result.output

    def test_empty_id_list_is_usage_error(self, runner, spec_path, star_root, tmp_path):
        result = runner.invoke(main, ["star-run", "--root", str(star_root),
                                      "--spec", str(spec_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert [line for line in result.stderr.splitlines() if line.startswith("error:")] == [
            "error: the following arguments are required: IDS"]
        assert result.stdout == ""
        assert not (tmp_path / "out").exists()

    def test_bad_root_exits_1(self, runner, spec_path, tmp_path):
        result = runner.invoke(main, ["star-run", "--root", str(tmp_path / "nope"),
                                      "--spec", str(spec_path), "101"])
        assert result.exit_code == 1


class TestPrint:
    def test_flags_expose_scenario_and_orchestration(self, runner, spec_path, star_root,
                                                     tmp_path):
        spec = write_spec(
            tmp_path / "spec.json",
            orchestrators=[{"agent": "Alice", "type": "instruction_list",
                            "params": {"plan": {"0": "Greet warmly"}}}],
        )
        runner.invoke(main, ["generate", "--spec", str(spec)])
        path = tmp_path / "out" / "dialog_000.json"
        result = runner.invoke(main, ["print", str(path),
                                      "--scenario", "--orchestration"])
        assert result.exit_code == 0
        assert "Greet warmly" in result.output

    def test_no_flags_turns_only(self, runner, spec_path, tmp_path):
        runner.invoke(main, ["generate", "--spec", str(spec_path)])
        path = tmp_path / "out" / "dialog_000.json"
        result = runner.invoke(main, ["print", str(path)])
        assert result.exit_code == 0
        dialog = read_dialog_file(path)
        assert result.output == serialize_dialog(dialog, "plain")

    def test_scenario_header_from_dataset_dialog(self, runner, star_root):
        result = runner.invoke(main, ["print",
                                      str(star_root / "dialogues" / "101.json"),
                                      "--scenario"])
        # fixture dialogue file itself has no scenario attached; header only
        # appears for dialogs that carry one
        assert result.exit_code == 0

    def test_scenario_header_from_star_run_output(self, runner, spec_path, star_root,
                                                  tmp_path):
        result = runner.invoke(main, ["star-run", "--root", str(star_root),
                                      "--spec", str(spec_path), "101"])
        assert result.exit_code == 0, result.output
        path = str(tmp_path / "out" / "star_dialog_101.json")
        result = runner.invoke(main, ["print", path, "--scenario"])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("--- scenario ---\n")
        header = result.output.split("---\n")[1].splitlines()
        assert header == [
            "Domains: ['banking']",
            "UserTask: Open a new account",
            "WizardTask: Assist with account opening",
            "Happy: True",
            "MultiTask: False",
            "WizardCapabilities: [{'Task': 'open_account', 'Domain': 'banking'}]",
        ]
        assert "UserTask" not in runner.invoke(main, ["print", path]).output

    def test_txt_input_renders(self, runner, tmp_path):
        txt = tmp_path / "d.txt"
        txt.write_text("Alice: Hi!\nBob: Hello, Alice!\n")
        result = runner.invoke(main, ["print", str(txt)])
        assert result.exit_code == 0
        assert result.output == "Alice: Hi!\nBob: Hello, Alice!\n"

    def test_unparseable_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        result = runner.invoke(main, ["print", str(bad)])
        assert result.exit_code == 1

    def test_non_utf8_exits_1_with_error_line(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        result = runner.invoke(main, ["print", str(bad)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")


def build_corpus(tmp_path: Path, runner) -> Path:
    """Five dialogs: three with >= 6 turns, two shorter; one mentions refunds."""
    corpus = tmp_path / "corpus"
    long_script = [f"line {i}" for i in range(7)] + ["closing [END]"]
    short_script = ["one", "two", "three [END]"]
    refund_script = ["I want a refund", "Sure, processing your refund now",
                     "Thank you for the quick help", "Anytime", "x", "y", "closing [END]"]
    scripts = [long_script, long_script, refund_script,
               short_script, short_script]
    for i, script in enumerate(scripts):
        spec = write_spec(
            tmp_path / f"spec_{i}.json",
            backend={"scripted": script, "cycle": True},
            outputDir=str(corpus),
            maxTurns=8 if len(script) > 4 else 3,
        )
        result = runner.invoke(main, ["generate", "--spec", str(spec), "--id", str(i)])
        assert result.exit_code == 0, result.output
    return corpus


class TestFilter:
    def test_min_turns_selects_long_dialogs(self, runner, tmp_path):
        corpus = build_corpus(tmp_path, runner)
        result = runner.invoke(main, ["filter", str(corpus / "dialog_*.json"),
                                      "--min-turns", "6"])
        assert result.exit_code == 0
        paths = [line for line in result.output.splitlines() if line.endswith(".json")]
        assert len([p for p in paths if "dialog_" in p]) == 3
        assert "Found 3 dialogues with at least 6 turns." in result.output

    def test_min_turns_zero_keeps_all(self, runner, tmp_path):
        corpus = build_corpus(tmp_path, runner)
        result = runner.invoke(main, ["filter", str(corpus / "dialog_*.json"),
                                      "--min-turns", "0"])
        paths = [line for line in result.output.splitlines()
                 if line.endswith(".json") and "dialog_" in line]
        assert len(paths) == 5

    def test_contains_filter(self, runner, tmp_path):
        corpus = build_corpus(tmp_path, runner)
        result = runner.invoke(main, ["filter", str(corpus / "dialog_*.json"),
                                      "--contains", "REFUND"])
        paths = [line for line in result.output.splitlines()
                 if line.endswith(".json") and "dialog_" in line]
        assert len(paths) == 1

    def test_contains_without_match_exits_0(self, runner, tmp_path):
        corpus = build_corpus(tmp_path, runner)
        result = runner.invoke(main, ["filter", str(corpus / "dialog_*.json"),
                                      "--contains", "unicorn"])
        assert result.exit_code == 0
        assert "Found 0 dialogues" in result.output

    def test_unreadable_file_skipped_with_warning(self, runner, tmp_path):
        corpus = build_corpus(tmp_path, runner)
        (corpus / "dialog_zz.json").write_text("{broken")
        result = runner.invoke(main, ["filter", str(corpus / "dialog_*.json"),
                                      "--min-turns", "0"])
        assert result.exit_code == 0
        assert "warning" in result.output

    def test_non_utf8_file_skipped_with_warning(self, runner, star_root, tmp_path):
        shutil.copy(star_root / "dialogues" / "101.json", tmp_path / "a.json")
        (tmp_path / "b.json").write_bytes(b"\xff\xfe{}")
        result = runner.invoke(main, ["filter", str(tmp_path / "*.json")])
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines() == [str(tmp_path / "a.json")]
        assert f"warning: skipping {tmp_path / 'b.json'}: " in result.stderr


class TestWireBackendViaCli:
    def test_base_url_from_env(self, runner, tmp_path, monkeypatch):
        from test_backends import MockServer

        server = MockServer()
        try:
            monkeypatch.setenv("DIALOGFORGE_BASE_URL", server.url)
            monkeypatch.setenv("DIALOGFORGE_API_KEY", "envkey")
            spec = write_spec(tmp_path / "spec.json",
                              backend={"model": "test-model"}, maxTurns=2)
            result = runner.invoke(main, ["generate", "--spec", str(spec)])
            assert result.exit_code == 0, result.output
            dialog = read_dialog_file(tmp_path / "out" / "dialog_000.json")
            assert dialog.model == "test-model"
            assert len(dialog) == 2
            assert server.headers[0]["Authorization"] == "Bearer envkey"
        finally:
            server.close()

    def test_unsendable_api_key_exits_1_without_echo(self, runner, tmp_path):
        spec = write_spec(tmp_path / "spec.json",
                          backend={"baseUrl": "http://127.0.0.1:9/v1", "model": "m"})
        result = runner.invoke(main, ["generate", "--spec", str(spec),
                                      "--api-key", "sk-SECRET\n"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr.startswith("error: the API key cannot be sent")
        assert len(result.stderr.splitlines()) == 1
        assert "SECRET" not in result.stderr + result.stdout

    def test_missing_url_everywhere_exits_1(self, runner, tmp_path, monkeypatch):
        monkeypatch.delenv("DIALOGFORGE_BASE_URL", raising=False)
        spec = write_spec(tmp_path / "spec.json", backend={"model": "m"})
        result = runner.invoke(main, ["generate", "--spec", str(spec)])
        assert result.exit_code == 1
        assert "DIALOGFORGE_BASE_URL" in result.output


def wire_reply(body: dict) -> tuple[str, str]:
    """A reply that is a function of the request alone, so every send order
    gives the same dialogs; each dialog ends after 3 to 5 turns."""
    turn, seed = len(body["messages"]), body["seed"]
    end = " [END]" if turn >= 3 + seed % 3 else ""
    return ("ok", f"Reply {turn} to {seed % 997}.{end}")


def dialog_of_seed(base: int, ids) -> dict[int, int]:
    """The dialog index (or id) behind each agent seed of a run with this base."""
    return {derive_seed(base + i, k): i for i in ids for k in (0, 1)}


@pytest.fixture
def wire_server():
    from test_backends import MockServer

    server = MockServer(delay=0.01)
    server.behave = wire_reply
    yield server
    server.close()


@pytest.fixture
def wire_spec(wire_server, tmp_path):
    return write_spec(tmp_path / "spec.json",
                      backend={"baseUrl": wire_server.url, "model": "m"}, maxTurns=6)


class TestConcurrentWireRuns:
    def test_batch_matches_serial_run(self, runner, wire_server, wire_spec, tmp_path,
                                      monkeypatch):
        out = tmp_path / "out"
        pooled = cli.WIRE_WORKERS
        count = 2 * pooled
        runs = []
        # the pooled run's requests wait long enough for every worker's to overlap
        for workers, delay in ((pooled, 0.05), (1, 0.01)):
            monkeypatch.setattr(cli, "WIRE_WORKERS", workers)
            wire_server.delay, wire_server.max_in_flight = delay, 0
            result = runner.invoke(main, ["batch", "--spec", str(wire_spec), "-n", str(count)])
            assert result.exit_code == 0, result.output
            runs.append(({p.name: p.read_bytes() for p in out.iterdir()}, result.stderr,
                         wire_server.max_in_flight))
            shutil.rmtree(out)
        (files, stderr, in_flight), (serial_files, serial_stderr, _) = runs
        assert len(files) == count
        assert files == serial_files
        assert stderr == serial_stderr
        assert in_flight == pooled

    def test_batch_failure_leaves_files_below_lowest_failing_index(
            self, runner, wire_server, wire_spec, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "WIRE_WORKERS", 8)  # both failing dialogs start at once
        count = 40
        dialog_of = dialog_of_seed(1, range(count))  # the spec's base seed is 1
        started: set[int] = set()

        def behave(body):
            dialog = dialog_of[body["seed"]]
            started.add(dialog)
            if dialog in (3, 5):
                return ("status", 500)
            time.sleep(0.05)  # dialogs 3 and 5 fail before any other dialog ends
            return wire_reply(body)

        wire_server.behave = behave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result = runner.invoke(main, ["batch", "--spec", str(wire_spec),
                                          "-n", str(count)])
        finally:
            sys.setswitchinterval(interval)
        assert result.exit_code == 2
        assert result.output.count("error: ") == 1
        assert "error: dialog 3 failed: HTTP 500 from backend" in result.output
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "dialog_000.json", "dialog_001.json", "dialog_002.json"]
        # the first workers' dialogs are in flight when 3 fails; no later one starts
        assert started <= set(range(cli.WIRE_WORKERS))

    def test_star_run_reports_failures_in_id_order(self, runner, wire_server, wire_spec,
                                                   star_root, tmp_path):
        dialog_of = dialog_of_seed(1, (101, 102, 103))

        def behave(body):
            dialog_id = dialog_of[body["seed"]]
            if dialog_id == 101:
                return ("status", 500)
            if dialog_id == 103:
                time.sleep(0.05)  # the first id finishes last
            return wire_reply(body)

        wire_server.behave = behave
        result = runner.invoke(main, ["star-run", "--root", str(star_root),
                                      "--spec", str(wire_spec), "103", "101", "102"])
        assert result.exit_code == 2
        out = tmp_path / "out"
        lines = result.stderr.splitlines()
        assert lines[0] == f"wrote {out / 'star_dialog_103.json'}"
        assert lines[1].startswith("error: scenario 101: HTTP 500 from backend")
        assert lines[2:] == [f"wrote {out / 'star_dialog_102.json'}"]
        assert sorted(p.name for p in out.iterdir()) == [
            "star_dialog_102.json", "star_dialog_103.json"]

    def test_killed_batch_leaves_only_whole_dialog_files(self, wire_server, wire_spec,
                                                         tmp_path):
        # requests the kill cuts short are not worth a traceback from the server
        wire_server.server.handle_error = lambda request, client_address: None
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        child = subprocess.Popen(
            [sys.executable, "-m", "dialogforge.cli", "batch", "--spec", str(wire_spec),
             "-n", "200"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while not list(out.glob("dialog_*.json")) and child.poll() is None:
                assert time.monotonic() < deadline, "no dialog file within 60 s"
                time.sleep(0.005)
        finally:
            child.kill()  # SIGKILL
            child.wait(timeout=10)
        assert child.returncode == -signal.SIGKILL
        written = sorted(out.glob("dialog_*.json"))
        assert 0 < len(written) < 200
        for path in written:
            read_dialog_file(path).validate()
        # a kill between write and rename leaves at most a hidden temp file
        others = {p.name for p in out.iterdir()} - {p.name for p in written}
        assert all(name.startswith(".dialog_") and name.endswith(".tmp") for name in others)

    def test_interrupted_batch_ends_with_one_error_line(self, wire_server, wire_spec,
                                                        tmp_path):
        wire_server.server.handle_error = lambda request, client_address: None
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        # stderr goes to a file: a pipe nobody reads could fill and stall the child
        with open(tmp_path / "stderr.txt", "w") as stderr:
            child = subprocess.Popen(
                [sys.executable, "-m", "dialogforge.cli", "batch", "--spec", str(wire_spec),
                 "-n", "5000"],
                env=env, stdout=subprocess.DEVNULL, stderr=stderr)
            try:
                deadline = time.monotonic() + 60
                while not list(out.glob("dialog_*.json")) and child.poll() is None:
                    assert time.monotonic() < deadline, "no dialog file within 60 s"
                    time.sleep(0.005)
                child.send_signal(signal.SIGINT)
                child.wait(timeout=60)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait(timeout=10)
        err = (tmp_path / "stderr.txt").read_text()
        assert child.returncode == 1, err
        assert err.splitlines()[-1] == "error: interrupted"
        assert "Traceback" not in err
        written = sorted(out.glob("dialog_*.json"))
        assert 0 < len(written) < 5000
        for path in written:
            read_dialog_file(path).validate()
        # the dialogs in flight finished; none was cut short
        assert {p.name for p in out.iterdir()} == {p.name for p in written}


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``dialogforge ARGS`` as a child process, whose stderr shows any traceback."""
    env = {**os.environ, "PYTHONIOENCODING": "utf-8", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "dialogforge.cli", *args], env=env,
                          capture_output=True, encoding="utf-8", timeout=120)


class TestBrokenPipe:
    def test_reader_that_stops_after_one_line_ends_with_one_error_line(self, tmp_path):
        # as `dialogforge filter ... | head -1`: stdout is block-buffered (no
        # PYTHONUNBUFFERED), and the paths fill more than a 64 KB pipe, so the
        # child is still writing when the pipe closes after its first line
        text = serialize_dialog(Dialog().append_utterance("A", "hi").append_utterance("B", "yo"))
        for i in range(300):
            (tmp_path / f"{'x' * 200}_{i:03}.json").write_text(text, encoding="utf-8")
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        with open(tmp_path / "stderr.txt", "w") as stderr:
            child = subprocess.Popen(
                [sys.executable, "-m", "dialogforge.cli", "filter", str(tmp_path / "*.json")],
                env=env, stdout=subprocess.PIPE, stderr=stderr)
            try:
                assert child.stdout.readline().endswith(b"_000.json\n")
                child.stdout.close()
                child.wait(timeout=60)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait(timeout=10)
        err = (tmp_path / "stderr.txt").read_text()
        assert child.returncode == 1, err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: [Errno 32] Broken pipe"], err
        assert "Exception ignored" not in err and "Traceback" not in err


class TestLoneSurrogates:
    """A JSON escape in \\ud800-\\udfff outside a pair decodes to a string that
    UTF-8 cannot encode; the reader rejects it instead of a later write failing."""

    LONE = "half \ud800 written"  # json.dumps writes it as the escape \\ud800

    def dialog_file(self, tmp_path, text):
        path = tmp_path / "dialog.json"
        path.write_text(json.dumps({"formatVersion": "1", "turns": [{"speaker": "A", "text": text}]}))
        return path

    def assert_clean_exit(self, result, code):
        assert result.returncode == code, result.stderr
        assert result.stderr.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in result.stderr

    def test_print_exits_1(self, tmp_path):
        result = run_cli("print", str(self.dialog_file(tmp_path, self.LONE)))
        self.assert_clean_exit(result, 1)
        assert "lone surrogate" in result.stderr

    def test_flow_exits_1(self, tmp_path):
        path, out = self.dialog_file(tmp_path, self.LONE), tmp_path / "flow.dot"
        result = run_cli("flow", str(path), "--k", "1", "--out", str(out))
        self.assert_clean_exit(result, 1)
        assert "lone surrogate" in result.stderr  # the warning that skips the file
        assert not out.exists()

    def test_batch_with_scripted_reply_exits_1(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", backend={"scripted": [self.LONE]})
        result = run_cli("batch", "--spec", str(spec), "-n", "1")
        self.assert_clean_exit(result, 1)
        assert "lone surrogate" in result.stderr

    def test_batch_against_server_reply_exits_2(self, wire_server, wire_spec, tmp_path):
        body = json.dumps({"choices": [{"message": {"content": self.LONE}}]}).encode()
        wire_server.behave = lambda request: ("raw", body)
        result = run_cli("batch", "--spec", str(wire_spec), "-n", "1")
        self.assert_clean_exit(result, 2)
        assert "malformed completion response" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_surrogate_pair_accepted(self, tmp_path):
        result = run_cli("print", str(self.dialog_file(tmp_path, "smile \U0001F600")))
        assert result.returncode == 0, result.stderr
        assert result.stdout == "A: smile \U0001F600\n"


class TestFlowCommand:
    def test_writes_dot_file(self, runner, tmp_path):
        corpus = build_corpus(tmp_path, runner)
        out = tmp_path / "graph.dot"
        result = runner.invoke(main, ["flow", str(corpus / "dialog_*.json"),
                                      "--k", "6", "--seed", "0",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        dot = out.read_text()
        assert dot.startswith("digraph")
        assert '"START"' in dot and '"END"' in dot

    def test_deterministic_dot(self, runner, tmp_path):
        corpus = build_corpus(tmp_path, runner)
        out_a, out_b = tmp_path / "a.dot", tmp_path / "b.dot"
        args = [str(corpus / "dialog_*.json"), "--k", "6", "--seed", "0"]
        runner.invoke(main, ["flow", *args, "--out", str(out_a)])
        runner.invoke(main, ["flow", *args, "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_infeasible_k_exits_1(self, runner, tmp_path):
        corpus = build_corpus(tmp_path, runner)
        result = runner.invoke(main, ["flow", str(corpus / "dialog_*.json"),
                                      "--k", "500", "--seed", "0",
                                      "--out", str(tmp_path / "x.dot")])
        assert result.exit_code == 1

    def test_no_matches_exits_1(self, runner, tmp_path):
        result = runner.invoke(main, ["flow", str(tmp_path / "nothing_*.json"),
                                      "--k", "2", "--seed", "0",
                                      "--out", str(tmp_path / "x.dot")])
        assert result.exit_code == 1


INT_OPTIONS = {"generate": ["--seed", "--id", "--max-turns"],
               "batch": ["-n", "--seed", "--max-turns"], "star-run": ["--seed"],
               "print": [], "filter": ["--min-turns"], "flow": ["--k", "--seed"]}
LONG_OPTIONS = {
    "generate": ["--spec", "--output-dir", "--seed", "--id", "--max-turns", "--print",
                 "--base-url", "--model", "--api-key"],
    "batch": ["--spec", "--output-dir", "--seed", "--count", "--max-turns", "--base-url",
              "--model", "--api-key"],
    "star-run": ["--root", "--spec", "--output-dir", "--seed", "--base-url", "--model",
                 "--api-key"],
    "print": ["--scenario", "--orchestration"],
    "filter": ["--min-turns", "--contains"],
    "flow": ["--k", "--seed", "--out"],
}


def _valid_units(tmp: Path) -> dict[str, list[tuple[str, ...]]]:
    """Each command's valid arguments as units: an option with its value, or a
    positional. Every unit is required."""
    spec = str(write_spec(tmp / "spec.json"))
    dialog = str(FIXTURES / "star" / "dialogues" / "101.json")
    return {
        "generate": [("--spec", spec)],
        "batch": [("--spec", spec), ("-n", "1")],
        "star-run": [("--root", str(FIXTURES / "star")), ("--spec", spec), ("101",)],
        "print": [(dialog,)],
        "filter": [(dialog,)],
        "flow": [(dialog,), ("--k", "2"), ("--out", str(tmp / "flow.dot"))],
    }


def _not_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


@st.composite
def usage_errors(draw, valid: dict[str, list[tuple[str, ...]]]) -> list[str]:
    """One command's valid arguments with one usage error drawn into them."""
    command = draw(st.sampled_from(sorted(valid)))
    units = list(valid[command])
    kinds = ["unknown", "missing", "stray", "-h", "abbreviated"]
    kinds += ["non-int"] if INT_OPTIONS[command] else []
    kind = draw(st.sampled_from(kinds))
    if kind == "missing":
        del units[draw(st.integers(0, len(units) - 1))]
    else:
        if kind == "unknown":
            unit = (draw(st.sampled_from(["--bogus", "--verbose", "-x", "--spec-file",
                                          "--seed2", "--help-me"])),)
        elif kind == "stray":
            unit = (draw(st.sampled_from(["stray", "x.json", "1.5"])),)
        elif kind == "-h":
            unit = ("-h",)
        elif kind == "non-int":
            value = draw(st.text(max_size=6).filter(_not_int))
            unit = (draw(st.sampled_from(INT_OPTIONS[command])), value)
        else:
            option = draw(st.sampled_from([o for o in LONG_OPTIONS[command] if len(o) > 3]))
            abbreviated = option[:draw(st.integers(3, len(option) - 1))]
            assume(abbreviated not in LONG_OPTIONS[command])
            unit = (abbreviated, "1")
        units.insert(draw(st.integers(0, len(units))), unit)
    return [command, *(token for unit in units for token in unit)]


class TestUsageErrors:
    """A usage error is an input error: exit 1 with one ``error:`` line, never 2."""

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        return _valid_units(tmp_path_factory.mktemp("usage"))

    def test_valid_units_run(self, valid):
        for command, units in valid.items():
            args = [command, *(token for unit in units for token in unit)]
            result = invoke(main, args)
            assert result.exit_code == 0, (args, result.output)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_usage_error_exits_1_property(self, valid, data):
        args = data.draw(usage_errors(valid))
        result = invoke(main, args)
        assert result.exit_code == 1, (args, result.output)
        assert isinstance(result.exception, SystemExit), (args, result.exception)
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, (args, result.output)
