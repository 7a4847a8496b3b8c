"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from dialogforge import read_dialog_file, serialize_dialog
from dialogforge.cli import main


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

    def test_empty_id_list_ok(self, runner, spec_path, star_root):
        result = runner.invoke(main, ["star-run", "--root", str(star_root),
                                      "--spec", str(spec_path)])
        assert result.exit_code == 0

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

    def test_missing_url_everywhere_exits_1(self, runner, tmp_path, monkeypatch):
        monkeypatch.delenv("DIALOGFORGE_BASE_URL", raising=False)
        spec = write_spec(tmp_path / "spec.json", backend={"model": "m"})
        result = runner.invoke(main, ["generate", "--spec", str(spec)])
        assert result.exit_code == 1
        assert "DIALOGFORGE_BASE_URL" in result.output


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
