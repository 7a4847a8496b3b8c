"""Command-line interface: generate, batch, star-run, print, filter, flow.

Workflows are driven by a declarative JSON run spec (see README for the
format) with flags overriding spec fields. Exit codes are a stable
contract: 0 success, 1 configuration/input error, 2 backend/wire error.
Artifacts go to files or stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import functools
import glob as globlib
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

import click

from .agents import Agent, Persona
from .backends import BASE_URL_ENV, Backend, HttpBackend, ScriptedBackend
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
from .orchestrators import (
    ChangeMindOrchestrator,
    InstructionListOrchestrator,
    LengthOrchestrator,
    Orchestrator,
    SimpleReflexOrchestrator,
    SimpleResponseOrchestrator,
)
from .scenarios import agents_for_scenario, load_scenario, set_dataset_root
from .seeding import entropy_seed

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
        agent_name = _may(record, "agent", str, "orchestrator record")
        if agent_name is not None and agent_name not in personas:
            raise ConfigError(f"orchestrator references unknown persona {agent_name!r}")

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


# builders read params with need(key, kinds) and may(key, kinds, default=None)
_ORCHESTRATOR_BUILDERS = {
    "length": lambda need, may: LengthOrchestrator(
        min_turns=need("min", int), max_turns=need("max", int)
    ),
    "change_mind": lambda need, may: ChangeMindOrchestrator(
        probability=need("probability", (int, float)),
        reasons=may("reasons", list[str]),
        max_times=may("maxTimes", int, default=1),
    ),
    "simple_reflex": lambda need, may: SimpleReflexOrchestrator(
        condition=functools.partial(_contains, need("contains", str).lower()),
        instruction=need("instruction", str),
        persist=may("persist", bool, default=False),
    ),
    "simple_response": lambda need, may: SimpleResponseOrchestrator(
        candidates=need("candidates", list[str]),
        top_k=may("topK", int),
    ),
    "instruction_list": lambda need, may: InstructionListOrchestrator(
        plan=_read_plan(need("plan", dict)),
        persist=may("persist", bool, default=False),
    ),
}


def _read_plan(plan: dict[str, Any]) -> dict[int, str]:
    if not all(key.isascii() and key.isdigit() for key in plan):
        raise ConfigError(f"plan keys must be decimal turn indices, got {sorted(plan)}")
    return {int(key): _need(plan, key, str, "plan") for key in plan}


def _contains(needle: str, utterance: str) -> bool:
    return needle in utterance.lower()


def build_orchestrator(record: dict[str, Any]) -> Orchestrator:
    kind = record["type"]
    builder = _ORCHESTRATOR_BUILDERS.get(kind)
    if builder is None:
        raise ConfigError(
            f"unknown orchestrator type {kind!r} "
            f"(expected one of {sorted(_ORCHESTRATOR_BUILDERS)})"
        )
    where = f"orchestrator {kind!r} params"
    params = _may(record, "params", dict, where, default={})
    return builder(functools.partial(_need, params, where=where),
                   functools.partial(_may, params, where=where))


def make_agents(spec: RunSpec, backend: Backend) -> tuple[Agent, Agent]:
    """Build the conversing pair; the first persona in the spec initiates."""
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
        target = record.get("agent") or first.name
        agents[target] | build_orchestrator(record)
    return first, second


def _fail(message: str, code: int) -> "SystemExit":
    click.echo(f"error: {message}", err=True)
    return SystemExit(code)


def handle_errors(fn):
    """Map package errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BackendError as exc:
            raise _fail(str(exc), 2) from exc
        except (DialogForgeError, OSError) as exc:
            raise _fail(str(exc), 1) from exc

    return wrapper


@click.group()
def main():
    """Generate, orchestrate, inspect, and analyze synthetic dialogues."""


_spec_option = click.option("--spec", "spec_path", required=True,
                            type=click.Path(), help="Path to the JSON run spec.")
_output_option = click.option("--output-dir", default=None,
                              help="Override the spec's output directory.")
_seed_option = click.option("--seed", default=None, type=int,
                            help="Override the spec's base seed.")
_wire_options = [
    click.option("--base-url", default=None, help="Override the backend base URL."),
    click.option("--model", default=None, help="Override the backend model name."),
    click.option("--api-key", default=None, help="Override the backend API key."),
]


def _with_wire_options(fn):
    for option in reversed(_wire_options):
        fn = option(fn)
    return fn


def _resolve_seed(spec: RunSpec, seed: int | None) -> int:
    if seed is not None:
        return seed
    if spec.seed is not None:
        return spec.seed
    return entropy_seed()


def _run_one(
    spec: RunSpec,
    dialog_id: int,
    seed: int,
    output_dir: Path,
    base_url: str | None,
    model: str | None,
    api_key: str | None,
    max_turns: int | None,
) -> tuple[Dialog, Path]:
    backend = make_backend(spec, base_url, model, api_key)
    first, second = make_agents(spec, backend)
    dialog = first.dialog_with(
        second, id=dialog_id, seed=seed,
        max_turns=max_turns if max_turns is not None else spec.max_turns,
    )
    path = output_dir / f"dialog_{dialog_id:03d}.json"
    write_dialog_file(dialog, path)
    return dialog, path


@main.command()
@_spec_option
@_output_option
@_seed_option
@click.option("--id", "dialog_id", default=0, type=int, help="Dialog id (default 0).")
@click.option("--max-turns", default=None, type=int, help="Override the spec's turn cap.")
@click.option("--print", "do_print", is_flag=True, help="Render the dialog to stdout.")
@_with_wire_options
@handle_errors
def generate(spec_path, output_dir, seed, dialog_id, max_turns, do_print,
             base_url, model, api_key):
    """Generate one dialogue from a run spec and write it as JSON."""
    spec = load_runspec(spec_path)
    out = Path(output_dir or spec.output_dir)
    dialog, path = _run_one(spec, dialog_id, _resolve_seed(spec, seed), out,
                            base_url, model, api_key, max_turns)
    if do_print:
        click.echo(render_dialog(dialog, show_orchestration=True), nl=False)
    click.echo(f"wrote {path}", err=True)


@main.command()
@_spec_option
@_output_option
@_seed_option
@click.option("-n", "--count", "count", required=True, type=int,
              help="How many dialogues to generate.")
@click.option("--max-turns", default=None, type=int, help="Override the spec's turn cap.")
@_with_wire_options
@handle_errors
def batch(spec_path, output_dir, seed, count, max_turns, base_url, model, api_key):
    """Generate N dialogues as dialog_000.json ... with seeds base+0..base+N-1."""
    if count <= 0:
        raise ConfigError("--count must be positive")
    spec = load_runspec(spec_path)
    out = Path(output_dir or spec.output_dir)
    base_seed = _resolve_seed(spec, seed)
    for i in range(count):
        try:
            _, path = _run_one(spec, i, base_seed + i, out,
                               base_url, model, api_key, max_turns)
        except DialogForgeError as exc:
            # earlier files are kept; report where the batch stopped
            raise type(exc)(f"dialog {i} failed: {exc}") from exc
        click.echo(f"wrote {path}", err=True)


@main.command("star-run")
@click.option("--root", "root_path", required=True, type=click.Path(),
              help="Dataset root directory.")
@_spec_option
@_output_option
@_seed_option
@click.argument("ids", nargs=-1, type=int)
@_with_wire_options
@handle_errors
def star_run(root_path, spec_path, output_dir, seed, ids, base_url, model, api_key):
    """Simulate dialogues for dataset scenario IDS, one file per id."""
    spec = load_runspec(spec_path)
    root = set_dataset_root(root_path)
    out = Path(output_dir or spec.output_dir)
    base_seed = _resolve_seed(spec, seed)
    input_failures = backend_failures = 0
    for dialog_id in ids:
        try:
            scenario = load_scenario(root, dialog_id)
            backend = make_backend(spec, base_url, model, api_key)
            system_agent, user_agent = agents_for_scenario(scenario, backend, root=root)
            dialog = system_agent.dialog_with(
                user_agent, id=dialog_id, seed=base_seed + dialog_id,
                max_turns=spec.max_turns,
            )
            path = write_dialog_file(dialog, out / f"star_dialog_{dialog_id}.json")
        except BackendError as exc:
            backend_failures += 1
            click.echo(f"error: scenario {dialog_id}: {exc}", err=True)
            continue
        except DialogForgeError as exc:
            input_failures += 1
            click.echo(f"error: scenario {dialog_id}: {exc}", err=True)
            continue
        click.echo(f"wrote {path}", err=True)
    if backend_failures:
        raise SystemExit(2)
    if input_failures:
        raise SystemExit(1)


@main.command("print")
@click.argument("file", type=click.Path())
@click.option("--scenario", "show_scenario", is_flag=True,
              help="Show scenario metadata header.")
@click.option("--orchestration", "show_orchestration", is_flag=True,
              help="Interleave orchestration events.")
@handle_errors
def print_cmd(file, show_scenario, show_orchestration):
    """Pretty-print a dialogue file (.json structured, .txt plain)."""
    dialog = read_dialog_file(file)
    click.echo(
        render_dialog(dialog, show_scenario=show_scenario,
                      show_orchestration=show_orchestration),
        nl=False,
    )


def _read_dialogs(pattern: str) -> Iterator[tuple[str, Dialog]]:
    """(path, dialog) per matching file in sorted order; unreadable files are skipped."""
    for path in sorted(globlib.glob(pattern)):
        try:
            dialog = read_dialog_file(path)
        except (DialogForgeError, OSError) as exc:
            click.echo(f"warning: skipping {path}: {exc}", err=True)
            continue
        yield path, dialog


@main.command("filter")
@click.argument("pattern")
@click.option("--min-turns", default=0, type=int, help="Keep dialogs with >= N turns.")
@click.option("--contains", default=None,
              help="Keep dialogs with a turn containing this text (case-insensitive).")
@handle_errors
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
        click.echo(path)
    summary = f"Found {len(matches)} dialogues with at least {min_turns} turns"
    if contains is not None:
        summary += f" containing {contains!r}"
    click.echo(summary + ".", err=True)


@main.command("flow")
@click.argument("pattern")
@click.option("--k", "k", required=True, type=int,
              help="Total number of action clusters (abstraction level).")
@click.option("--seed", default=0, type=int, help="Clustering seed.")
@click.option("--out", "out_path", required=True, type=click.Path(),
              help="Where to write the DOT file.")
@handle_errors
def flow_cmd(pattern, k, seed, out_path):
    """Extract an action-transition graph from a dialogue corpus as DOT."""
    dialogs = [dialog for _, dialog in _read_dialogs(pattern)]
    if not dialogs:
        raise ConfigError(f"no parseable dialogues match {pattern!r}")
    graph = build_flow_graph(dialogs, k=k, seed=seed)
    out = Path(out_path)
    write_text_atomic(out, flow_to_dot(graph))
    click.echo(
        f"wrote flow graph ({len(graph.nodes)} nodes, {len(graph.edges)} edges) to {out}",
        err=True,
    )


if __name__ == "__main__":
    main()
