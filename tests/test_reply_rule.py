"""The reply rule end to end: ``batch`` stores every reply or fails on the backend.

A scripted backend replays drawn replies built from newlines, blanks,
carriage returns, the end marker in and out of place, and non-ASCII text.
A run exits 0 and every file it writes reads back equal to the dialog the
library builds in memory, or it exits 2 with one ``error:`` line because a
reply stores no text and does not end the dialog. It never exits 1: a reply
is not an input error.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from dialogforge import Agent, EmptyCompletion, Persona, ScriptedBackend, read_dialog_file
from dialogforge.cli import main
from helpers import invoke
from test_cli import write_spec

SEED = 1
PIECES = ["\n", "\n\n", " ", "\r", "\r\n", "[END]", "\n[END]", "[END", "[END]x", "x[END]\n\n"]
non_ascii = st.text(st.characters(min_codepoint=0x80, blacklist_categories=("Cs",)),
                    min_size=1, max_size=4)
replies = st.lists(st.one_of(st.sampled_from(PIECES), non_ascii),
                   min_size=1, max_size=2).map("".join)


def in_memory(script: list[str], dialog_id: int, max_turns: int):
    """The dialog that the library builds for batch index ``dialog_id``."""
    backend = ScriptedBackend(script, cycle=True)  # one backend per dialog, as in batch
    alice, bob = Agent(backend, Persona("Alice")), Agent(backend, Persona("Bob"))
    return alice.dialog_with(bob, id=dialog_id, seed=SEED + dialog_id, max_turns=max_turns)


@settings(max_examples=60, deadline=None)
@given(script=st.lists(replies, min_size=1, max_size=6), max_turns=st.integers(1, 8),
       count=st.integers(1, 3))
def test_batch_stores_each_reply_or_exits_2(script, max_turns, count):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        spec = write_spec(Path(tmp) / "spec.json", backend={"scripted": script},
                          personas={"Alice": {}, "Bob": {}}, seed=SEED, maxTurns=max_turns,
                          outputDir=str(out))
        result = invoke(main, ["batch", "--spec", str(spec), "-n", str(count)])
        assert result.exit_code in (0, 2), result.output
        files = sorted(out.iterdir()) if out.exists() else []
        if result.exit_code == 2:
            # every dialog replays the same script, so dialog 0 fails and none is written
            lines = result.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: dialog 0 failed: "), lines
            try:
                in_memory(script, 0, max_turns)
            except EmptyCompletion as exc:
                assert lines[0] == f"error: dialog 0 failed: {exc}"
            else:
                raise AssertionError(f"the library stored what batch did not: {lines}")
            assert files == []
        else:
            assert [path.name for path in files] == [f"dialog_{i:03d}.json" for i in range(count)]
            for i, path in enumerate(files):
                dialog = read_dialog_file(path)
                assert dialog == in_memory(script, i, max_turns)
                # a turn that the partner answered holds text
                assert all(turn.text for turn in dialog.turns[:-1])
