"""Command-line interface: generate, batch, star-run, print, filter, flow.

Workflows are driven by a declarative JSON run spec (see README for the
format) with flags overriding spec fields. Exit codes are a stable
contract: 0 success, 1 configuration/input error, 2 backend/wire error.
A usage error (an unknown option, a missing or ill-typed argument, no
``star-run`` id) is an input error. Artifacts go to files or stdout;
diagnostics go to stderr.

``batch`` seeds dialog i with base+i, ``star-run`` seeds scenario id with
base+id. ``star-run`` uses only backend, seed, maxTurns and outputDir (the
spec's personas and orchestrators are type-checked but not used, so an
orchestrator may name an undefined persona), goes on past a failing id, and
exits 2 if any id failed on the backend, else 1 if any failed on its input.
START and END are reserved ids, not flowchart step ids.

With a wire backend, ``batch`` and ``star-run`` run WIRE_WORKERS dialogs at
a time; scripted dialogs run one at a time. Either way files, seeds, stderr
lines, messages and exit codes are those of a serial run: results are
written in index (or id) order. After a ``batch`` dialog fails, no dialog
with a higher index starts; dialogs in flight finish and are not written.
On Ctrl-C, dialogs in flight finish, then the command exits 1 with
``error: interrupted``.
"""

from __future__ import annotations

import argparse
import functools
import glob as globlib
import os
import sys
from collections import deque
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NoReturn

from .dialog import (
    Dialog,
    _optional,
    _read_json,
    _require,
    read_dialog_file,
    render_dialog,
    write_dialog_file,
    write_text_atomic,
)
from .errors import BackendError, ConfigError, DialogForgeError
from .flow import build_flow_graph, flow_to_dot

# the generation modules (agents, backends, orchestrators, scenarios, seeding)
# and the thread pool are imported by the functions that use them, so print,
# filter and flow start without them
if TYPE_CHECKING:
    from concurrent.futures import Future

    from .agents import Agent
    from .backends import Backend
    from .orchestrators import Orchestrator

# run-spec fields are read with the dialog parser's typed-field reader
_need = functools.partial(_require, error=ConfigError)
_may = functools.partial(_optional, error=ConfigError)


@dataclass
class RunSpec:
    """Parsed contents of a JSON run-spec file."""

    backend: dict[str, Any]
    personas: dict[str, dict[str, Any]]
    orchestrators: list[dict[str, Any]]
    seed: int | None
    max_turns: int
    output_dir: str


def load_runspec(path: str | Path) -> RunSpec:
    raw = _read_json(Path(path), "spec file", ConfigError)
    backend = _need(raw, "backend", dict, "spec")
    has_wire = "baseUrl" in backend or "model" in backend
    has_script = "scripted" in backend
    if has_wire == has_script:
        raise ConfigError(
            "backend must be exactly one of {baseUrl, model} or {scripted: [...]}"
        )

    personas = _may(raw, "personas", dict, "spec", default={})
    orchestrators = _may(raw, "orchestrators", list[dict], "spec", default=[])
    for record in orchestrators:
        _need(record, "type", str, "orchestrator record")
        _may(record, "agent", str, "orchestrator record")

    max_turns = _may(raw, "maxTurns", int, "spec", default=40)
    if max_turns <= 0:
        raise ConfigError("'maxTurns' must be a positive integer")
    return RunSpec(
        backend=backend,
        personas=personas,
        orchestrators=orchestrators,
        seed=_may(raw, "seed", int, "spec"),
        max_turns=max_turns,
        output_dir=_may(raw, "outputDir", str, "spec", default="output"),
    )


def make_backend(
    spec: RunSpec,
    base_url: str | None = None,
    model: str | None = None,
    api_key: str | None = None,
) -> Backend:
    """Build a fresh backend from the spec (flags > spec file > env)."""
    from .backends import BASE_URL_ENV, HttpBackend, ScriptedBackend

    conf = spec.backend
    if "scripted" in conf:
        script = _need(conf, "scripted", list[str], "backend")
        # scripts loop by default so run length is governed by maxTurns
        return ScriptedBackend(script, cycle=_may(conf, "cycle", bool, "backend", default=True))
    url = base_url or _may(conf, "baseUrl", str, "backend") or os.environ.get(BASE_URL_ENV)
    if not url:
        raise ConfigError(
            f"no backend URL: set backend.baseUrl, --base-url, or {BASE_URL_ENV}"
        )
    model_name = model or _may(conf, "model", str, "backend")
    if not model_name:
        raise ConfigError("no model name: set backend.model or --model")
    return HttpBackend(url, model_name, api_key=api_key)


# builders take the orchestrators module and read params with
# need(key, kinds) and may(key, kinds, default=None)
_ORCHESTRATOR_BUILDERS = {
    "length": lambda o, need, may: o.LengthOrchestrator(
        min_turns=need("min", int), max_turns=need("max", int)
    ),
    "change_mind": lambda o, need, may: o.ChangeMindOrchestrator(
        probability=need("probability", (int, float)),
        reasons=may("reasons", list[str]),
        max_times=may("maxTimes", int, default=1),
    ),
    "simple_reflex": lambda o, need, may: o.SimpleReflexOrchestrator(
        condition=functools.partial(_contains, need("contains", str).lower()),
        instruction=need("instruction", str),
        persist=may("persist", bool, default=False),
    ),
    "simple_response": lambda o, need, may: o.SimpleResponseOrchestrator(
        candidates=need("candidates", list[str]),
        top_k=may("topK", int),
    ),
    "instruction_list": lambda o, need, may: o.InstructionListOrchestrator(
        plan=_read_plan(need("plan", dict)),
        persist=may("persist", bool, default=False),
    ),
}


def _read_plan(plan: dict[str, Any]) -> dict[int, str]:
    if len({int(key) for key in plan if key.isascii() and key.isdigit()}) != len(plan):
        raise ConfigError(f"plan keys must be decimal turn indices, each once, got {sorted(plan)}")
    return {int(key): _need(plan, key, str, "plan") for key in plan}


def _contains(needle: str, utterance: str) -> bool:
    return needle in utterance.lower()


def build_orchestrator(record: dict[str, Any]) -> Orchestrator:
    from . import orchestrators

    kind = record["type"]
    builder = _ORCHESTRATOR_BUILDERS.get(kind)
    if builder is None:
        raise ConfigError(
            f"unknown orchestrator type {kind!r} "
            f"(expected one of {sorted(_ORCHESTRATOR_BUILDERS)})"
        )
    where = f"orchestrator {kind!r} params"
    params = _may(record, "params", dict, where, default={})
    return builder(orchestrators, functools.partial(_need, params, where=where),
                   functools.partial(_may, params, where=where))


def make_agents(spec: RunSpec, backend: Backend) -> tuple[Agent, Agent]:
    """Build the conversing pair; the first persona in the spec initiates."""
    from .agents import Agent, Persona

    if len(spec.personas) != 2:
        raise ConfigError(
            f"spec must define exactly two personas, found {len(spec.personas)}"
        )
    agents: dict[str, Agent] = {}
    for name in spec.personas:
        fields = _need(spec.personas, name, dict, "personas")
        # the map key names the persona; a "name" field is ignored
        persona_fields = {k: v for k, v in fields.items() if k != "firstUtterance"}
        persona = Persona.from_dict({**persona_fields, "name": name})
        first = _may(fields, "firstUtterance", str, f"persona {name!r}")
        agents[name] = Agent(backend, persona, first_utterance=first)
    first, second = agents.values()
    for record in spec.orchestrators:
        target = record.get("agent")
        if target is not None and target not in agents:
            raise ConfigError(f"orchestrator references unknown persona {target!r}")
        agents[target or first.name] | build_orchestrator(record)
    return first, second


def _fail(message: str, code: int) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(code)


def _exit_code(exc: Exception) -> int:
    """The documented exit code of a failed run: 2 backend/wire, 1 input."""
    return 2 if isinstance(exc, BackendError) else 1


def _load_run(spec_path: str, output_dir: str | None, seed: int | None,
              max_turns: int | None = None) -> RunSpec:
    """The run spec with --output-dir, --seed (else spec, else entropy) and --max-turns."""
    from .seeding import entropy_seed

    if max_turns is not None and max_turns <= 0:
        raise ConfigError("'--max-turns' must be a positive integer")
    spec = load_runspec(spec_path)
    if seed is None:
        seed = entropy_seed() if spec.seed is None else spec.seed
    return replace(spec, output_dir=output_dir or spec.output_dir, seed=seed,
                   max_turns=spec.max_turns if max_turns is None else max_turns)


# dialogs a wire-backend run keeps in flight, each on its own backend and connection;
# scripted dialogs are pure-Python work under the GIL, and running them one at a time
# keeps the serial prompt order. A wire dialog mostly waits on the server, so the count
# sets the throughput. 6 new connections at once is as many as Linux holds in the
# accept queue of a listener with the backlog of 5 that socketserver and http.server
# use (backlog + 1); it drops the SYNs of more, and the client resends them after
# ~1 s. 40-dialog batches against a mock with a 10 ms delay and that backlog, two
# shared cores, 10 alternating pairs a row (CHANGES.md has the runs):
#   workers  beside         wall s        CPU ms/completion  batches stalled
#   5 -> 6   one busy loop  1.22 -> 1.09  0.86 -> 0.81       0 of 20
#   5 -> 6   nothing        1.24 -> 1.10  1.14 -> 1.08       0 of 20
#   6 -> 8   nothing        1.13 -> 0.91  1.16 -> 1.19       0 of 20; at 8, 2 of 10
#                                                            in another set (+0.85 s)
WIRE_WORKERS = 6


def _run_one(spec: RunSpec, wire: dict[str, str | None],
             agents: Callable[[Backend], tuple[Agent, Agent]], dialog_id: int,
             seed: int) -> Dialog:
    """Run one dialog between the ``agents`` pair on a fresh backend.

    The first calls of ``make_backend`` and ``make_agents`` import their
    modules, maybe on several pool threads at once; the import system's
    per-module locks make the other threads wait for the first.
    """
    backend = make_backend(spec, **wire)
    first, second = agents(backend)
    try:
        return first.dialog_with(second, id=dialog_id, seed=seed, max_turns=spec.max_turns)
    finally:
        # an agent and its orchestrators form a reference cycle, so the backend,
        # and the connection it keeps, would outlive the dialog until collected
        backend.close()


def _run_in_order(spec: RunSpec, ids: Iterable[int], job: Callable[[int], Dialog],
                  consume: Callable[[int, Future[Dialog]], None]) -> None:
    """Run ``job(id)`` for each id on a thread pool and ``consume`` the futures in id order.

    A wire backend runs WIRE_WORKERS jobs at a time, a scripted one runs them
    one at a time. When ``consume`` raises, or on Ctrl-C, jobs not yet started
    are cancelled and jobs in flight finish before the exception propagates.
    """
    from concurrent.futures import ThreadPoolExecutor

    workers = 1 if "scripted" in spec.backend else WIRE_WORKERS
    ids = iter(ids)
    pending: deque[tuple[int, Future[Dialog]]] = deque()
    pool = ThreadPoolExecutor(workers)
    try:
        while True:
            # up to twice the workers are submitted ahead of the dialog being written:
            # a slow dialog seldom idles a worker, and a long run holds that many
            # results in memory, not all of them
            for dialog_id in islice(ids, 2 * workers - len(pending)):
                pending.append((dialog_id, pool.submit(job, dialog_id)))
            if not pending:
                return
            consume(*pending.popleft())
    finally:
        pool.shutdown(cancel_futures=True)


def generate(spec_path, output_dir, seed, dialog_id, max_turns, do_print, **wire):
    """Generate one dialogue from a run spec and write it as JSON."""
    spec = _load_run(spec_path, output_dir, seed, max_turns)
    agents = functools.partial(make_agents, spec)

    def write(i, future):
        dialog = future.result()
        path = write_dialog_file(dialog, Path(spec.output_dir) / f"dialog_{i:03d}.json")
        if do_print:
            print(render_dialog(dialog, show_orchestration=True), end="", flush=True)
        print(f"wrote {path}", file=sys.stderr)

    _run_in_order(spec, [dialog_id], lambda i: _run_one(spec, wire, agents, i, spec.seed),
                  write)


def batch(spec_path, output_dir, seed, count, max_turns, **wire):
    """Generate N dialogues as dialog_000.json ... with seeds base+0..base+N-1."""
    if count <= 0:
        raise ConfigError("--count must be positive")
    spec = _load_run(spec_path, output_dir, seed, max_turns)
    agents = functools.partial(make_agents, spec)
    failed: list[int] = []  # indices whose job raised, appended from worker threads

    def job(i):
        # the batch stops at the lowest failing index and writes nothing above it;
        # a job past this check when a lower one fails is in flight and is dropped
        if failed and i > min(failed):
            return None
        try:
            return _run_one(spec, wire, agents, i, spec.seed + i)
        except BaseException:
            failed.append(i)
            raise

    def write(i, future):
        try:
            path = write_dialog_file(future.result(),
                                     Path(spec.output_dir) / f"dialog_{i:03d}.json")
        except (DialogForgeError, OSError) as exc:
            # earlier files are kept; report where the batch stopped
            raise _fail(f"dialog {i} failed: {exc}", _exit_code(exc)) from exc
        print(f"wrote {path}", file=sys.stderr)

    _run_in_order(spec, range(count), job, write)


def star_run(root_path, spec_path, output_dir, seed, ids, **wire):
    """Simulate dialogues for dataset scenario IDS, one file per id."""
    from .scenarios import agents_for_scenario, load_scenario, set_dataset_root

    spec = _load_run(spec_path, output_dir, seed)
    root = set_dataset_root(root_path)
    code = 0

    def job(dialog_id):
        scenario = load_scenario(root, dialog_id)
        agents = functools.partial(agents_for_scenario, scenario, root=root)
        dialog = _run_one(spec, wire, agents, dialog_id, spec.seed + dialog_id)
        return replace(dialog, scenario=scenario.to_dict())

    def write(dialog_id, future):
        nonlocal code
        try:
            path = write_dialog_file(future.result(),
                                     Path(spec.output_dir) / f"star_dialog_{dialog_id}.json")
        except (DialogForgeError, OSError) as exc:
            print(f"error: scenario {dialog_id}: {exc}", file=sys.stderr)
            code = max(code, _exit_code(exc))
        else:
            print(f"wrote {path}", file=sys.stderr)

    _run_in_order(spec, ids, job, write)
    if code:
        raise SystemExit(code)


def print_cmd(file, show_scenario, show_orchestration):
    """Pretty-print a dialogue file (.json structured, .txt plain)."""
    print(render_dialog(read_dialog_file(file), show_scenario=show_scenario,
                        show_orchestration=show_orchestration), end="", flush=True)


def _read_dialogs(pattern: str) -> Iterator[tuple[str, Dialog]]:
    """(path, dialog) per matching file in sorted order; unreadable files are skipped."""
    for path in sorted(globlib.glob(pattern)):
        try:
            dialog = read_dialog_file(path)
        except (DialogForgeError, OSError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
            continue
        yield path, dialog


def filter_cmd(pattern, min_turns, contains):
    """List dialogue files matching length/content criteria."""
    matches = []
    for path, dialog in _read_dialogs(pattern):
        if len(dialog) < min_turns:
            continue
        if contains is not None and not any(
            contains.lower() in turn.text.lower() for turn in dialog.turns
        ):
            continue
        matches.append(path)
        print(path, flush=True)  # each path keeps its place among the warnings on stderr
    summary = f"Found {len(matches)} dialogues with at least {min_turns} turns"
    if contains is not None:
        summary += f" containing {contains!r}"
    print(summary + ".", file=sys.stderr)


def flow_cmd(pattern, k, seed, out_path):
    """Extract an action-transition graph from a dialogue corpus as DOT."""

    def dialogs():  # each file is parsed as it is read, and dropped after
        found = False
        for _, dialog in _read_dialogs(pattern):
            found = True
            yield dialog
        if not found:
            raise ConfigError(f"no parseable dialogues match {pattern!r}")

    graph = build_flow_graph(dialogs(), k=k, seed=seed)
    out = Path(out_path)
    write_text_atomic(out, flow_to_dot(graph))
    print(f"wrote flow graph ({len(graph.nodes)} nodes, {len(graph.edges)} edges) to {out}",
          file=sys.stderr)


# each command's function and its parser's arguments, in --help order: the
# argument's names, space-separated, and its add_argument keywords
_SPEC_ARGS = {"--spec": dict(dest="spec_path", required=True, help="Path to the JSON run spec."),
              "--output-dir": dict(help="Override the spec's output directory."),
              "--seed": dict(type=int, help="Override the spec's base seed.")}
_MAX_TURNS_ARG = {"--max-turns": dict(type=int, help="Override the spec's turn cap.")}
_WIRE_ARGS = {"--base-url": dict(help="Override the backend base URL."),  # make_backend's **wire
              "--model": dict(help="Override the backend model name."),
              "--api-key": dict(help="Override the backend API key.")}
_COMMANDS: dict[str, tuple[Callable[..., None], dict[str, dict[str, Any]]]] = {
    "generate": (generate, {
        **_SPEC_ARGS,
        "--id": dict(dest="dialog_id", default=0, type=int, help="Dialog id (default 0)."),
        **_MAX_TURNS_ARG,
        "--print": dict(dest="do_print", action="store_true", help="Render the dialog to stdout."),
        **_WIRE_ARGS}),
    "batch": (batch, {
        **_SPEC_ARGS,
        "-n --count": dict(required=True, type=int, help="How many dialogues to generate."),
        **_MAX_TURNS_ARG,
        **_WIRE_ARGS}),
    "star-run": (star_run, {
        "--root": dict(dest="root_path", required=True, help="Dataset root directory."),
        **_SPEC_ARGS,
        "ids": dict(nargs="+", type=int, metavar="IDS"),
        **_WIRE_ARGS}),
    "print": (print_cmd, {
        "file": dict(metavar="FILE"),
        "--scenario": dict(dest="show_scenario", action="store_true",
                           help="Show scenario metadata header."),
        "--orchestration": dict(dest="show_orchestration", action="store_true",
                                help="Interleave orchestration events.")}),
    "filter": (filter_cmd, {
        "pattern": dict(metavar="PATTERN"),
        "--min-turns": dict(default=0, type=int, help="Keep dialogs with >= N turns."),
        "--contains": dict(
            help="Keep dialogs with a turn containing this text (case-insensitive).")}),
    "flow": (flow_cmd, {
        "pattern": dict(metavar="PATTERN"),
        "--k": dict(required=True, type=int,
                    help="Total number of action clusters (abstraction level)."),
        "--seed": dict(default=0, type=int, help="Clustering seed."),
        "--out": dict(dest="out_path", required=True, help="Where to write the DOT file.")}),
}


class _Parser(argparse.ArgumentParser):
    """Parses ``arguments`` and ``--help`` only; a usage error is an input error (exit 1)."""

    def __init__(self, arguments: dict[str, dict[str, Any]] | None = None, **kwargs: Any):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        for names, options in (arguments or {}).items():
            self.add_argument(*names.split(), **options)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise _fail(message, 1)


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Generate, orchestrate, inspect, and analyze synthetic dialogues."""
    argv = sys.argv[1:] if args is None else list(args)
    top = _Parser(prog=prog_name or "dialogforge", description=main.__doc__)
    commands = top.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (command, _) in _COMMANDS.items():
        commands.add_parser(name, help=command.__doc__)
    command, arguments = _COMMANDS[top.parse_args(argv[:1]).command]
    # read intermixed, star-run's ids may come before, between or after its options
    parser = _Parser(arguments, prog=f"{top.prog} {argv[0]}", description=command.__doc__)
    options = parser.parse_intermixed_args(argv[1:])
    try:
        command(**vars(options))
    except (DialogForgeError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # stdout's reader is gone; exit flushes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _fail(str(exc), _exit_code(exc)) from exc
    except KeyboardInterrupt:
        # dialogs in flight have finished by now: _run_in_order waits for them
        raise _fail("interrupted", 1) from None


if __name__ == "__main__":
    main()
