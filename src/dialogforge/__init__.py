"""dialogforge: synthetic multi-agent dialogue generation and analysis.

Quick tour::

    from dialogforge import Persona, Agent, ScriptedBackend
    from dialogforge.orchestrators import LengthOrchestrator

    backend = ScriptedBackend(["Hi!", "Hello there!", "Bye! [END]"], cycle=True)
    alice = Agent(backend, Persona(name="Alice", role="barista"))
    bob = Agent(backend, Persona(name="Bob", role="customer"))
    alice = alice | LengthOrchestrator(min_turns=4, max_turns=8)

    dialog = alice.dialog_with(bob, seed=1)
    print(dialog)

Each exported name is imported from its submodule on first use (PEP 562),
so ``import dialogforge`` loads no submodule and a command loads only the
modules it runs.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "agents": ("END_MARKER", "Agent", "Persona", "persona_prompt"),
    "backends": ("Backend", "HttpBackend", "Message", "SamplingParams", "ScriptedBackend"),
    "dialog": ("Dialog", "Event", "Turn", "deserialize_dialog", "read_dialog_file",
               "render_dialog", "serialize_dialog", "write_dialog_file"),
    "errors": ("BackendError", "BackendExhausted", "BadTurnLine", "ConfigError",
               "DialogForgeError", "DuplicateAgentName", "EmptyCompletion", "EmptySpeaker",
               "InvariantViolation", "NotADirectory", "NotFound", "ParseError",
               "SchemaViolation", "UnserializableSpeaker", "WireError"),
    "flow": ("ClusterModel", "FlowEdge", "FlowGraph", "FlowNode", "build_flow_graph",
             "cluster", "cosine", "embed", "flow_to_dot"),
    "generators": ("GenerationBrief", "generate_dialog", "generate_persona_dialog"),
    "orchestrators": ("ChangeMindOrchestrator", "InstructionListOrchestrator",
                      "LengthOrchestrator", "Orchestrator", "SimpleReflexOrchestrator",
                      "SimpleResponseOrchestrator"),
    "scenarios": ("Capability", "Flowchart", "Scenario", "agents_for_scenario",
                  "describe_flowchart", "describe_scenario", "load_dialog", "load_flowchart",
                  "load_scenario", "set_dataset_root"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
