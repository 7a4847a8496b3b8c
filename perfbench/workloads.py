"""The three workloads: what each sets up, runs (timed) and checks.

engine-long     ``dialogforge batch`` over a scripted spec at a turn cap of
                1,500: per-turn cost in agents, orchestrators and dialog
                grows with dialog length and dominates the wall time.
wire-batch      ``dialogforge batch`` against the in-process mock with a
                10 ms delay, 40 short dialogs: per-completion wire overhead
                and serial waiting dominate.
corpus-analyze  ``flow``, ``filter`` and repeated ``print`` over a seeded
                corpus of 1,000 dialogs x ~20 turns: embed, k-means,
                parsing and interpreter start-up dominate.

Every CLI invocation is one operation, and so is every request the mock
answers. An operation fails when it exits non-zero, gets a non-200 reply,
or its output fails a check: it must read back and validate, equal the
in-process oracle where there is one, and hash the same as the other
repetitions of the run and, for the default seed, as the pinned digest.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
import spans
from mockserver import MockServer
from proc import Launcher, Result

WIRE_DELAY_S = 0.010
FLOW_K = 8

SIZES = {
    "full": {
        "engine-long": {"dialogs": 4, "turns": 1500},
        "wire-batch": {"dialogs": 40, "turns": 12},
        "corpus-analyze": {"dialogs": 1000, "turns": 20, "prints": 5},
    },
    "tiny": {
        "engine-long": {"dialogs": 2, "turns": 60},
        "wire-batch": {"dialogs": 3, "turns": 12},
        "corpus-analyze": {"dialogs": 40, "turns": 20, "prints": 2},
    },
}


class SetupError(RuntimeError):
    """The workload could not be set up; the run reports no result."""


@dataclass
class Gate:
    """Operations attempted and failed, with a reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        self.fail(problems)

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.append("; ".join(problems))


@dataclass
class Rep:
    """One repetition of a workload's timed command sequence."""

    wall_s: float  # all timed commands
    main_s: float  # the command that does the workload's main work
    dialogs: int
    turns: int
    rss_mb: float
    steps: dict[str, list[float]] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)
    requests: list = field(default_factory=list)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dir_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _tail(result: Result) -> str:
    lines = result.stderr.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


class Workload:
    name = ""

    def __init__(self, size: str, seed: int, launcher: Launcher, golden: dict[str, str] | None):
        self.cfg = SIZES[size][self.name]
        self.seed = seed
        self.launcher = launcher
        self.golden = golden or {}
        self.gate = Gate()
        self.digests: dict[str, str] = {}
        self.tamper: Callable[[Path], None] | None = None  # self-test hook: corrupts outputs
        self._traces = 0

    def setup(self, directory: Path) -> None:
        """Write the inputs and warm the CLI up (bytecode and page caches)."""
        directory.mkdir(parents=True)
        self.prepare(directory)
        warm = self.launcher.cli(["--help"])
        if warm.code != 0:
            raise SetupError(f"dialogforge --help exited {warm.code}: {_tail(warm)}")

    def prepare(self, directory: Path) -> None:
        raise NotImplementedError

    def rep(self, directory: Path, traced: bool) -> Rep:
        raise NotImplementedError

    def final_check(self) -> None:
        pass

    def close(self) -> None:
        pass

    def _cli(self, directory: Path, label: str, args: list[str], traced: bool) -> tuple[Result, list[tuple]]:
        if not traced:
            return self.launcher.cli(args), []
        path = directory / f"spans-{label}.json"
        result = self.launcher.cli(args, spans=path)
        if not path.exists():  # the child was killed; its exit code fails the operation
            return result, []
        loaded = spans.load(path, id_offset=self._traces << 32, trace_offset=self._traces << 20)
        self._traces += 1
        return result, loaded

    def _check_digest(self, key: str, digest: str, problems: list[str]) -> None:
        expected = self.golden.get(key) or self.digests.setdefault(key, digest)
        self.digests.setdefault(key, digest)
        if digest != expected:
            problems.append(f"{key} digest {digest[:12]} != expected {expected[:12]}")


class BatchWorkload(Workload):
    """``dialogforge batch`` writing ``dialogs`` files; checks each file."""

    def spec(self) -> dict:
        raise NotImplementedError

    def turns_ok(self, turns: int) -> bool:
        raise NotImplementedError

    def prepare(self, directory: Path) -> None:
        self.spec_path = directory / "spec.json"
        self.spec_path.write_text(json.dumps(self.spec(), indent=2), encoding="utf-8")

    def requests(self) -> list:
        return []

    def rep(self, directory: Path, traced: bool) -> Rep:
        from dialogforge import DialogForgeError, read_dialog_file

        out = directory / "out"
        n = self.cfg["dialogs"]
        args = ["batch", "--spec", str(self.spec_path), "--output-dir", str(out), "-n", str(n)]
        result, traced_spans = self._cli(directory, "batch", args, traced)
        requests = self.requests()
        if self.tamper is not None:
            self.tamper(out)

        problems = [] if result.code == 0 else [f"batch exited {result.code}: {_tail(result)}"]
        expected = [f"dialog_{i:03d}.json" for i in range(n)]
        files = sorted(out.glob("*")) if out.is_dir() else []
        if [f.name for f in files] != expected:
            problems.append(f"wrote {[f.name for f in files]}, expected {expected}")
        turns = 0
        for path in files:
            try:
                dialog = read_dialog_file(path)
                dialog.validate()
            except (DialogForgeError, OSError) as exc:
                problems.append(f"{path.name} does not read back: {exc}")
                continue
            if not self.turns_ok(len(dialog)):
                problems.append(f"{path.name} has {len(dialog)} turns")
            turns += len(dialog)
        if files:
            self._check_digest("batch", dir_digest(out), problems)
        self.gate.op(problems)
        for record in requests:
            self.gate.op([] if record.status == 200 else [f"mock answered {record.status}"])
        shutil.rmtree(out, ignore_errors=True)
        return Rep(result.wall_s, result.wall_s, n, turns, result.rss_mb, spans=traced_spans, requests=requests)


class EngineLong(BatchWorkload):
    name = "engine-long"

    def spec(self) -> dict:
        return inputs.engine_spec(self.seed, self.cfg["turns"])

    def turns_ok(self, turns: int) -> bool:
        return turns == self.cfg["turns"]


class WireBatch(BatchWorkload):
    name = "wire-batch"
    mock: MockServer | None = None
    salt = b""  # the self-test sets one to change every mock reply

    def prepare(self, directory: Path) -> None:
        self.close()
        self.mock = MockServer(inputs.vocabulary(self.seed)[:800], WIRE_DELAY_S, salt=self.salt).start()
        super().prepare(directory)

    def spec(self) -> dict:
        return inputs.wire_spec(self.mock.url, self.seed, self.cfg["turns"])

    def turns_ok(self, turns: int) -> bool:
        return 1 <= turns <= self.cfg["turns"]

    def requests(self) -> list:
        return self.mock.take_records()

    def close(self) -> None:
        if self.mock is not None:
            self.mock.stop()
            self.mock = None


class CorpusAnalyze(Workload):
    name = "corpus-analyze"

    def prepare(self, directory: Path) -> None:
        corpus = directory / "corpus"
        lengths = inputs.write_corpus(corpus, self.seed, self.cfg["dialogs"], self.cfg["turns"])
        self.pattern = str(corpus / "*.json")
        self.min_turns = self.cfg["turns"]
        self.utterances = sum(lengths.values())
        self.expected_filter = "".join(
            f"{corpus / name}\n" for name in sorted(lengths) if lengths[name] >= self.min_turns
        ).encode()
        picks = random.Random(f"prints-{self.seed}").sample(sorted(lengths), self.cfg["prints"])
        self.print_files = [corpus / name for name in picks]
        self.print_oracles: list[bytes] = []
        self.first_dot: bytes | None = None

    def rep(self, directory: Path, traced: bool) -> Rep:
        from dialogforge import read_dialog_file, render_dialog

        if not self.print_oracles:
            self.print_oracles = [
                render_dialog(read_dialog_file(p), show_orchestration=True, color=False).encode()
                for p in self.print_files
            ]
        dot = directory / "flow.dot"
        flow, flow_spans = self._cli(
            directory, "flow", ["flow", self.pattern, "--k", str(FLOW_K), "--out", str(dot)], traced
        )
        filt, filter_spans = self._cli(
            directory, "filter", ["filter", self.pattern, "--min-turns", str(self.min_turns)], traced
        )
        prints = [
            self._cli(directory, f"print{i}", ["print", "--orchestration", str(p)], traced)
            for i, p in enumerate(self.print_files)
        ]
        if self.tamper is not None:
            self.tamper(dot)

        problems = [] if flow.code == 0 else [f"flow exited {flow.code}: {_tail(flow)}"]
        dot_bytes = dot.read_bytes() if dot.exists() else b""
        self._check_digest("flow", sha256(dot_bytes), problems)
        if self.first_dot is None:
            self.first_dot = dot_bytes
        self.gate.op(problems)

        problems = [] if filt.code == 0 else [f"filter exited {filt.code}: {_tail(filt)}"]
        if filt.stdout != self.expected_filter:
            problems.append("filter listed other files than expected")
        self.gate.op(problems)

        for i, ((result, _), oracle) in enumerate(zip(prints, self.print_oracles)):
            problems = [] if result.code == 0 else [f"print exited {result.code}: {_tail(result)}"]
            if result.stdout != oracle:
                problems.append(f"print of {self.print_files[i].name} differs from render_dialog")
            self._check_digest(f"print{i}", sha256(result.stdout), problems)
            self.gate.op(problems)

        print_s = [result.wall_s for result, _ in prints]
        return Rep(
            wall_s=flow.wall_s + filt.wall_s + sum(print_s),
            main_s=flow.wall_s,
            dialogs=self.cfg["dialogs"],
            turns=self.utterances,
            rss_mb=max([flow.rss_mb, filt.rss_mb] + [r.rss_mb for r, _ in prints]),
            steps={"flow_s": [flow.wall_s], "filter_s": [filt.wall_s], "print_s": print_s},
            spans=flow_spans + filter_spans + [s for _, ps in prints for s in ps],
        )

    def final_check(self) -> None:
        """The CLI's DOT equals the library's, and the graph validates."""
        import glob

        from dialogforge import ConfigError, build_flow_graph, flow_to_dot, read_dialog_file
        from dialogforge.flow import validate_flow_graph

        dialogs = [read_dialog_file(p) for p in sorted(glob.glob(self.pattern))]
        graph = build_flow_graph(dialogs, k=FLOW_K, seed=0)
        problems = []
        try:
            validate_flow_graph(graph)
        except ConfigError as exc:
            problems.append(f"flow graph invalid: {exc}")
        if flow_to_dot(graph).encode() != self.first_dot:
            problems.append("flow DOT differs from build_flow_graph + flow_to_dot")
        self.gate.fail(problems)


WORKLOADS = {cls.name: cls for cls in (EngineLong, WireBatch, CorpusAnalyze)}
