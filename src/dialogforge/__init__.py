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
"""

from .agents import END_MARKER, Agent, Persona, persona_prompt
from .backends import (
    Backend,
    HttpBackend,
    Message,
    SamplingParams,
    ScriptedBackend,
)
from .dialog import (
    Dialog,
    Event,
    Turn,
    deserialize_dialog,
    read_dialog_file,
    render_dialog,
    serialize_dialog,
    write_dialog_file,
)
from .errors import (
    BackendError,
    BackendExhausted,
    BadTurnLine,
    ConfigError,
    DialogForgeError,
    DuplicateAgentName,
    EmptyCompletion,
    EmptySpeaker,
    InvariantViolation,
    NotADirectory,
    NotFound,
    ParseError,
    SchemaViolation,
    UnserializableSpeaker,
    WireError,
)
from .flow import (
    ClusterModel,
    FlowEdge,
    FlowGraph,
    FlowNode,
    build_flow_graph,
    cluster,
    cosine,
    embed,
    flow_to_dot,
)
from .generators import GenerationBrief, generate_dialog, generate_persona_dialog
from .orchestrators import (
    ChangeMindOrchestrator,
    InstructionListOrchestrator,
    LengthOrchestrator,
    Orchestrator,
    SimpleReflexOrchestrator,
    SimpleResponseOrchestrator,
)
from .scenarios import (
    Capability,
    Flowchart,
    Scenario,
    agents_for_scenario,
    describe_flowchart,
    describe_scenario,
    load_dialog,
    load_flowchart,
    load_scenario,
    set_dataset_root,
)

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "Backend",
    "BackendError",
    "BackendExhausted",
    "BadTurnLine",
    "Capability",
    "ChangeMindOrchestrator",
    "ClusterModel",
    "ConfigError",
    "Dialog",
    "DialogForgeError",
    "DuplicateAgentName",
    "EmptyCompletion",
    "EmptySpeaker",
    "END_MARKER",
    "Event",
    "FlowEdge",
    "FlowGraph",
    "Flowchart",
    "FlowNode",
    "GenerationBrief",
    "HttpBackend",
    "InstructionListOrchestrator",
    "InvariantViolation",
    "LengthOrchestrator",
    "Message",
    "NotADirectory",
    "NotFound",
    "Orchestrator",
    "ParseError",
    "Persona",
    "SamplingParams",
    "Scenario",
    "SchemaViolation",
    "ScriptedBackend",
    "SimpleReflexOrchestrator",
    "SimpleResponseOrchestrator",
    "Turn",
    "UnserializableSpeaker",
    "WireError",
    "agents_for_scenario",
    "build_flow_graph",
    "cluster",
    "cosine",
    "describe_flowchart",
    "describe_scenario",
    "deserialize_dialog",
    "embed",
    "flow_to_dot",
    "generate_dialog",
    "generate_persona_dialog",
    "load_dialog",
    "load_flowchart",
    "load_scenario",
    "persona_prompt",
    "read_dialog_file",
    "render_dialog",
    "serialize_dialog",
    "set_dataset_root",
    "write_dialog_file",
]
