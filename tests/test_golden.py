"""Golden-output guard: pinned digests of fixed scripted runs.

Runs ``batch`` in-process over a fixed scripted spec that attaches all five
orchestrator types (one of them a persistent reflex) and gives one persona
a fixed first utterance, adds one dialog cut by the turn cap with
``generate``, then runs ``flow --k 4`` over the output. The
backend records every prompt it is sent. Three sha256 digests are pinned:
the output directory, the DOT file, and the list of (role, content)
prompts. A second run pins ``star-run`` over the fixture scenarios
101-103, which covers the scenario -> persona -> prompt path; its files are
hashed with the scenario each one carries set back to null. A refactor
that keeps behaviour keeps all five.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import dialogforge.cli as cli
from dialogforge import read_dialog_file, write_dialog_file
from dialogforge.cli import main
from dialogforge.scenarios import load_scenario

OUTPUT_DIR_SHA256 = "d5f5c7c91dda55e36af61d8f48ef50a9a3ee7e8d4768b006a969c1c7e747c322"
DOT_SHA256 = "2329ca270be09110d0c6a9a48641665ce84462a378597dc4b0bfdeeeb3e3335f"
PROMPTS_SHA256 = "289a9dc5d07ec27066340b31f4445cae6f8fcfe5bd1dc0583dcfae4ec98fa6a6"
STAR_OUTPUT_DIR_SHA256 = "6a18eb616c4ce933a2265ae73b64f2d76e81efa16642b8ee46af4d7a4ca440d4"
STAR_PROMPTS_SHA256 = "ce1200763a87a1e0b5a3304162b03a9b49e5642250d801766d5866af0315578f"

SPEC = {
    "backend": {"scripted": [
        "Good morning, what can I get you?",
        "Do you have any coffee from Ethiopia?",
        "We do, a light roast with berry notes.",
        "Great, a large coffee then, and a muffin.",
        "Blueberry or chocolate? Our coffee pairs well with both.",
        "Blueberry, please. How much is that?",
        "That comes to seven fifty.",
        "Here you go, thank you! [END]",
    ]},
    "personas": {
        "Alice": {
            "name": "ignored, the map key names the persona",
            "role": "barista",
            "personality": "cheerful",
            "rules": "Mention the daily special once.",
            "firstUtterance": "Welcome in!",
        },
        "Bob": {
            "role": "customer",
            "background": "A regular who works next door.",
            "language": "English",
        },
    },
    "orchestrators": [
        {"agent": "Alice", "type": "length", "params": {"min": 3, "max": 6}},
        {"agent": "Bob", "type": "change_mind",
         "params": {"probability": 0.5, "reasons": ["the price", "a phone call"],
                    "maxTimes": 2}},
        {"agent": "Alice", "type": "simple_reflex",
         "params": {"contains": "coffee", "instruction": "Recommend the house blend.",
                    "persist": True}},
        {"agent": "Alice", "type": "simple_response",
         "params": {"candidates": ["Would you like milk?", "That is our best seller.",
                                   "Anything else today?", "Enjoy your coffee!"],
                    "topK": 2}},
        {"agent": "Bob", "type": "instruction_list",
         "params": {"plan": {"0": "Ask about the coffee origin.",
                             "2": "Ask for the price."}}},
    ],
    "seed": 7,
    "maxTurns": 14,
}


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.iterdir()):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _record_prompts(monkeypatch) -> list[list[tuple[str, str]]]:
    """Make every backend the CLI builds record the prompts it is sent."""
    prompts: list[list[tuple[str, str]]] = []
    make_backend = cli.make_backend

    def recording_backend(*args, **kwargs):
        backend = make_backend(*args, **kwargs)
        complete = backend.complete

        def record(messages, params):
            prompts.append([(m.role, m.content) for m in messages])
            return complete(messages, params)

        backend.complete = record
        return backend

    monkeypatch.setattr(cli, "make_backend", recording_backend)
    return prompts


def _prompts_digest(prompts: list[list[tuple[str, str]]]) -> str:
    return hashlib.sha256(json.dumps(prompts, ensure_ascii=False).encode("utf-8")).hexdigest()


def test_golden_batch_and_flow(runner, tmp_path, monkeypatch):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**SPEC, "outputDir": str(tmp_path / "out")}),
                         encoding="utf-8")
    prompts = _record_prompts(monkeypatch)

    result = runner.invoke(main, ["batch", "--spec", str(spec_path), "-n", "3"])
    assert result.exit_code == 0, result.output
    # one more dialog that stops at the turn cap instead of the end marker
    result = runner.invoke(main, ["generate", "--spec", str(spec_path), "--id", "3",
                                  "--seed", "10", "--max-turns", "5"])
    assert result.exit_code == 0, result.output
    dot = tmp_path / "flow.dot"
    result = runner.invoke(main, ["flow", str(tmp_path / "out" / "dialog_*.json"),
                                  "--k", "4", "--out", str(dot)])
    assert result.exit_code == 0, result.output

    assert {
        "out": _tree_digest(tmp_path / "out"),
        "dot": hashlib.sha256(dot.read_bytes()).hexdigest(),
        "prompts": _prompts_digest(prompts),
    } == {"out": OUTPUT_DIR_SHA256, "dot": DOT_SHA256, "prompts": PROMPTS_SHA256}


def test_golden_star_run(runner, star_root, tmp_path, monkeypatch):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**SPEC, "outputDir": str(tmp_path / "out")}),
                         encoding="utf-8")
    prompts = _record_prompts(monkeypatch)

    result = runner.invoke(main, ["star-run", "--root", str(star_root),
                                  "--spec", str(spec_path), "101", "102", "103"])
    assert result.exit_code == 0, result.output

    # each file carries its scenario; with it nulled the files are the ones
    # pinned before star-run wrote scenarios
    for dialog_id in (101, 102, 103):
        path = tmp_path / "out" / f"star_dialog_{dialog_id}.json"
        dialog = read_dialog_file(path)
        assert dialog.scenario == load_scenario(star_root, dialog_id).to_dict()
        write_dialog_file(replace(dialog, scenario=None), path)
    assert {
        "out": _tree_digest(tmp_path / "out"),
        "prompts": _prompts_digest(prompts),
    } == {"out": STAR_OUTPUT_DIR_SHA256, "prompts": STAR_PROMPTS_SHA256}
