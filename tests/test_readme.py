"""README examples run as written: the library quick start and the run spec."""

from __future__ import annotations

import re
from pathlib import Path

from dialogforge import read_dialog_file
from dialogforge.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(language: str, after: str) -> str:
    """The first ``language`` code block after the line ``after``."""
    tail = README[README.index(after):]
    return re.search(rf"```{language}\n(.*?)```", tail, re.DOTALL).group(1)


def test_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(_block("python", "## Library quick start"), {})
    dialog = read_dialog_file(tmp_path / "out" / "dialog_000.json")
    dialog.validate()
    assert [turn.speaker for turn in dialog.turns[:2]] == ["Alice", "Bob"]
    assert (tmp_path / "out" / "dialog_000.txt").read_text(encoding="utf-8").startswith(
        "Alice: ")


def test_run_spec_first_utterance_opens_second_persona(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(_block("json", "## Command-line tool"), encoding="utf-8")
    result = runner.invoke(main, ["generate", "--spec", "spec.json"])
    assert result.exit_code == 0, result.output
    dialog = read_dialog_file(tmp_path / "out" / "dialog_000.json")
    dialog.validate()
    assert [(turn.speaker, turn.text) for turn in dialog.turns[:2]] == [
        ("Alice", "Hi, welcome in!"), ("Bob", "Hello there!")]
