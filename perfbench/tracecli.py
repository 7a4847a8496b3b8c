"""Run the dialogforge CLI with a span around every call into each layer.

Usage: python perfbench/tracecli.py SPANS_OUT.json CLI_ARGS...

The wrappers are installed from here, on the public entry points the CLI
reaches, so the package itself is run unmodified: per-instance wrappers on
``Agent.respond``, ``Agent.dialog_with`` and each orchestrator's
``instruct``; a wrapper on each backend's ``complete`` and on the HTTP
client's ``post``; wrappers on the dialog model's append, serialize, parse,
read, write and render functions; and on the flow functions, with a timing
``embedder=`` passed to ``build_flow_graph`` and a tracemalloc peak taken
around each ``cluster`` call. Spans are written to SPANS_OUT when the
command ends, whatever its exit code.
"""

from __future__ import annotations

import importlib
import sys
import tracemalloc

from spans import Tracer

ORCHESTRATOR_KIND = {
    "LengthOrchestrator": "length",
    "ChangeMindOrchestrator": "change_mind",
    "SimpleReflexOrchestrator": "simple_reflex",
    "SimpleResponseOrchestrator": "simple_response",
    "InstructionListOrchestrator": "instruction_list",
}


def _fired(args, kwargs, result) -> float:
    return 0.0 if result is None else 1.0


def install(tracer: Tracer, cli) -> None:
    import requests

    import dialogforge.dialog as dialog
    import dialogforge.flow as flow

    wrap = tracer.wrap
    dialog.Dialog.append_utterance = wrap("dialog.append_utterance", dialog.Dialog.append_utterance)
    dialog.Dialog.append_event = wrap("dialog.append_event", dialog.Dialog.append_event)
    dialog.serialize_dialog = wrap("dialog.serialize", dialog.serialize_dialog, note=lambda a, k, r: len(r))
    dialog.deserialize_dialog = wrap("dialog.parse", dialog.deserialize_dialog, note=lambda a, k, r: len(a[0]))
    cli.read_dialog_file = wrap("dialog.read", cli.read_dialog_file)
    cli.write_dialog_file = wrap("dialog.write", cli.write_dialog_file)
    cli.render_dialog = wrap("dialog.render", cli.render_dialog)

    requests.post = wrap("backends.http.post", requests.post)
    make_backend = cli.make_backend

    def traced_backend(*args, **kwargs):
        backend = make_backend(*args, **kwargs)
        backend.complete = wrap("backends.complete", backend.complete, note=lambda a, k, r: len(a[0]))
        return backend

    cli.make_backend = traced_backend
    make_agents = cli.make_agents

    def traced_agents(*args, **kwargs):
        pair = make_agents(*args, **kwargs)
        for agent in pair:
            agent.respond = wrap("agents.respond", agent.respond)
            for orchestrator in agent.orchestrators:
                kind = ORCHESTRATOR_KIND[type(orchestrator).__name__]
                orchestrator.instruct = wrap(f"orchestrators.{kind}.instruct", orchestrator.instruct, note=_fired)
        pair[0].dialog_with = wrap("agents.dialog_with", pair[0].dialog_with, new_trace=True)
        return pair

    cli.make_agents = traced_agents

    cluster = flow.cluster
    peaks_mb: list[float] = []

    def cluster_with_peak(*args, **kwargs):
        tracemalloc.start()
        try:
            return cluster(*args, **kwargs)
        finally:
            peaks_mb.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    flow.cluster = wrap("flow.cluster", cluster_with_peak, note=lambda a, k, r: peaks_mb[-1])
    embed = wrap("flow.embed", flow.embed)
    build_flow_graph = flow.build_flow_graph

    def traced_build(dialogs, k, seed):
        return build_flow_graph(dialogs, k=k, seed=seed, embedder=embed)

    cli.build_flow_graph = wrap("flow.build_flow_graph", traced_build)
    cli.flow_to_dot = wrap("flow.to_dot", cli.flow_to_dot)


def main() -> None:
    out, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    code: int | str | None = 0
    try:
        cli = tracer.wrap("cli.import", importlib.import_module)("dialogforge.cli")
        install(tracer, cli)
        tracer.wrap("cli.main", cli.main)(args=args, prog_name="dialogforge")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.dump(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
