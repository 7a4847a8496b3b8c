"""The wire contract of pooled ``batch`` and ``star-run``, as a property.

Each request the mock server sees answers with a drawn behaviour: ``ok`` (a
reply that is a function of the request), ``status`` (HTTP 500), ``raw`` (a
malformed 200 body), ``blank`` (a 200 reply whose content is ``"\n"``, which
stores no text), ``drop`` (the connection closes with no response) or
``stale`` (an ``ok`` reply, after which the server closes the connection
without saying so, as it would an idle one).
A small model of the contract says, from the drawn behaviours alone, which
files a run writes, which ``wrote``/``error`` lines it prints in which order,
its exit code and how many requests the server sees per dialog. Every run is
checked against that model at 1, 2, 4, 5, 6, 8 and 12 workers and at the
shipped ``cli.WIRE_WORKERS``, and every file it writes against a serial run
with no failure.
"""

from __future__ import annotations

import tempfile
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dialogforge.cli as cli
from dialogforge import deserialize_dialog
from dialogforge.cli import main
from helpers import invoke
from test_backends import MockServer
from test_cli import dialog_of_seed, wire_reply, write_spec

FIXTURES = Path(__file__).parent / "fixtures"
STAR_ROOT = FIXTURES / "star"
BASE_SEED = 1
MAX_COUNT = 5
STAR_IDS = (101, 102, 103)
MISSING_ID = 999  # no such scenario: an input failure, exit code 1

RESPONSES = {
    "status": ("status", 500),
    "raw": ("raw", b"<html>not json</html>"),
    "blank": ("ok", "\n"),
    "drop": ("drop",),
}
# the error message each failing behaviour ends a dialog with
FAILURES = {
    "status": "HTTP 500 from backend",
    "raw": "malformed completion response",
    "blank": "reply with no text from backend 'm'",
    "drop": "transport failure talking to",
}
# a dialog's behaviours, one per request it sends; past the list every request is ok
plans = st.lists(st.sampled_from(["ok", "ok", "ok", "status", "raw", "blank", "drop", "drop",
                                  "stale"]), max_size=8)
EXAMPLES = settings(max_examples=12, deadline=None)
WORKERS = pytest.mark.parametrize("workers", sorted({1, 2, 4, 5, 6, cli.WIRE_WORKERS, 8, 12}))


def model(plan: list[str], turns: int) -> tuple[int, str | None]:
    """(requests sent, failure message or None) of a dialog of ``turns`` turns.

    Each turn is one request; a drop is retried exactly once, and a status,
    a malformed body or a blank reply is not retried. After a stale reply,
    the dialog's next attempt fails without reaching the server, and that
    failure is the one retry.
    """
    behaviours = iter(plan)
    sent = 0
    stale = False  # the server closed the connection the next attempt goes out on
    for _ in range(turns):
        for _attempt in range(2):
            if stale:
                stale = False
                continue
            kind = next(behaviours, "ok")
            sent += 1
            if kind in ("ok", "stale"):
                stale = kind == "stale"
                break
            if kind != "drop":
                return sent, FAILURES[kind]
        else:
            return sent, FAILURES["drop"]
    return sent, None


def test_model():
    assert model([], 3) == (3, None)
    assert model(["drop", "ok", "drop"], 2) == (4, None)
    assert model(["ok", "drop", "drop"], 3) == (3, FAILURES["drop"])
    assert model(["status"], 3) == (1, FAILURES["status"])
    assert model(["drop", "raw"], 3) == (2, FAILURES["raw"])
    assert model(["ok", "blank"], 3) == (2, FAILURES["blank"])
    assert model(["drop", "blank"], 3) == (2, FAILURES["blank"])
    assert model(["stale", "ok", "stale"], 3) == (3, None)
    assert model(["stale", "drop"], 3) == (2, FAILURES["drop"])
    assert model(["ok", "stale"], 2) == (2, None)  # no request goes out after the last turn


class Harness:
    """One mock server and spec for every example, and the runs they make."""

    def __init__(self, server: MockServer, spec: Path):
        self.server = server
        self.spec = spec

    def run(self, args: list[str], plans: dict[int, list[str]], dialog_of: dict[int, int],
            workers: int) -> tuple[object, Path, dict[str, bytes], Counter]:
        """Run ``dialogforge ARGS`` with each dialog answered by its plan.

        Returns the invoke result, the output directory (gone by then), the
        files written there and the requests the server saw per dialog.
        """
        seen: Counter = Counter()
        lock = threading.Lock()

        def behave(body):
            dialog = dialog_of[body["seed"]]
            with lock:
                n = seen[dialog]
                seen[dialog] += 1
            plan = plans.get(dialog, [])
            kind = plan[n] if n < len(plan) else "ok"
            if kind in ("ok", "stale"):
                return (kind, wire_reply(body)[1])
            return RESPONSES[kind]

        self.server.behave = behave
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "WIRE_WORKERS", workers)
            out = Path(tmp) / "out"
            result = invoke(main, [*args, "--spec", str(self.spec), "--output-dir", str(out)])
            files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        return result, out, files, seen


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    server = MockServer()
    spec = write_spec(tmp_path_factory.mktemp("spec") / "spec.json", seed=BASE_SEED,
                      backend={"baseUrl": server.url, "model": "m"}, maxTurns=6)
    yield Harness(server, spec)
    server.close()


@pytest.fixture(scope="module")
def reference(harness):
    """File name -> (bytes, turns) of a serial run in which every request is ok."""
    files = {}
    for args, ids in ((["batch", "-n", str(MAX_COUNT)], range(MAX_COUNT)),
                      (["star-run", "--root", str(STAR_ROOT), *map(str, STAR_IDS)], STAR_IDS)):
        result, _, written, _ = harness.run(args, {}, dialog_of_seed(BASE_SEED, ids), 1)
        assert result.exit_code == 0, result.output
        files.update(written)
    return {name: (data, len(deserialize_dialog(data.decode()).turns))
            for name, data in files.items()}


@WORKERS
@EXAMPLES
@given(count=st.integers(1, MAX_COUNT), drawn=st.lists(plans, min_size=MAX_COUNT,
                                                       max_size=MAX_COUNT))
def test_batch_follows_contract(harness, reference, workers, count, drawn):
    names = [f"dialog_{i:03d}.json" for i in range(count)]
    expected = [model(drawn[i], reference[name][1]) for i, name in enumerate(names)]
    failing = next((i for i, (_, error) in enumerate(expected) if error), None)
    kept = names if failing is None else names[:failing]

    result, out, files, seen = harness.run(["batch", "-n", str(count)],
                                           dict(enumerate(drawn)),
                                           dialog_of_seed(BASE_SEED, range(count)), workers)

    assert files == {name: reference[name][0] for name in kept}
    lines = result.stderr.splitlines()
    assert lines[:len(kept)] == [f"wrote {out / name}" for name in kept]
    if failing is None:
        assert len(lines) == len(kept) and result.exit_code == 0, result.output
    else:
        assert len(lines) == len(kept) + 1 and result.exit_code == 2, result.output
        assert lines[-1].startswith(f"error: dialog {failing} failed: {expected[failing][1]}")
    # a dialog runs whole or not at all; none above the failing one has to start
    for i, (sent, _) in enumerate(expected):
        if failing is None or i <= failing:
            assert seen[i] == sent, (i, seen, expected)
        else:
            assert seen[i] in (0, sent), (i, seen, expected)


@WORKERS
@EXAMPLES
@given(ids=st.lists(st.sampled_from([*STAR_IDS, MISSING_ID]), min_size=1, unique=True),
       drawn=st.fixed_dictionaries({i: plans for i in STAR_IDS}))
def test_star_run_follows_contract(harness, reference, workers, ids, drawn):
    expected = {i: model(drawn[i], reference[f"star_dialog_{i}.json"][1])
                for i in ids if i != MISSING_ID}
    written = [f"star_dialog_{i}.json" for i in ids
               if i != MISSING_ID and expected[i][1] is None]

    result, out, files, seen = harness.run(
        ["star-run", "--root", str(STAR_ROOT), *map(str, ids)], drawn,
        dialog_of_seed(BASE_SEED, ids), workers)

    assert files == {name: reference[name][0] for name in written}
    lines = result.stderr.splitlines()
    assert len(lines) == len(ids)
    for i, line in zip(ids, lines):
        if i == MISSING_ID:
            assert line.startswith(f"error: scenario {i}: no scenario with id {i}"), line
        elif expected[i][1] is None:
            assert line == f"wrote {out / f'star_dialog_{i}.json'}"
        else:
            assert line.startswith(f"error: scenario {i}: {expected[i][1]}"), line
    codes = [1 if i == MISSING_ID else 2 if expected[i][1] else 0 for i in ids]
    assert result.exit_code == max(codes), result.output
    assert {i: seen[i] for i in expected} == {i: sent for i, (sent, _) in expected.items()}


def test_each_dialog_sends_on_its_own_connections(harness, reference):
    # on one worker both dialogs run on one thread: had dialog 0's connection
    # outlived its stale last reply, dialog 1's first attempt would fail on it
    # without reaching the server and use up the retry that its drop needs
    names = ["dialog_000.json", "dialog_001.json"]
    turns = [reference[name][1] for name in names]
    drawn = {0: ["ok"] * (turns[0] - 1) + ["stale"], 1: ["drop"]}
    expected = [model(drawn[i], turns[i]) for i in range(2)]
    assert [error for _, error in expected] == [None, None]
    dialog_of = dialog_of_seed(BASE_SEED, range(2))
    before = len(harness.server.requests)

    result, _, files, seen = harness.run(["batch", "-n", "2"], drawn, dialog_of, 1)

    assert result.exit_code == 0, result.output
    assert files == {name: reference[name][0] for name in names}
    assert [seen[0], seen[1]] == [sent for sent, _ in expected] == [3, 4]
    ports = [{r["port"] for r in harness.server.requests[before:]
              if dialog_of[r["body"]["seed"]] == i} for i in range(2)]
    assert not ports[0] & ports[1]
