"""Task-oriented scenario schema, dataset-root access, and agent construction.

A dataset root is a directory with the layout:

    dialogues/{id}.json            canonical structured dialogs
    scenarios/{id}.json            scenario objects (capitalized keys)
    flowcharts/{domain}/{task}.json task flowcharts

Scenario files use the capitalized external keys (Domains, UserTask,
WizardTask, Happy, MultiTask, WizardCapabilities); lowercase variants are
accepted on input and normalized.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .agents import Agent, Persona
from .backends import Backend
from .dialog import Dialog, _optional, _read_json, _require, read_dialog_file
from .errors import InvariantViolation, NotADirectory, NotFound, ParseError
from .flow import END_NODE, START_NODE, FlowEdge, FlowGraph, FlowNode


# an ill-typed scenario or flowchart field breaks the object's invariants
_need = functools.partial(_require, error=InvariantViolation)
_may = functools.partial(_optional, error=InvariantViolation)


def _spelling(mapping: dict[str, Any], *names: str) -> str:
    """The first of ``names`` present in ``mapping``, else the first name."""
    return next((name for name in names if name in mapping), names[0])


@dataclass(frozen=True)
class Capability:
    """One task the wizard can carry out, within one of the scenario domains."""

    task: str
    domain: str


@dataclass(frozen=True)
class Scenario:
    """Task-oriented scenario metadata that parameterizes agent construction."""

    domains: tuple[str, ...]
    user_task: str = ""
    wizard_task: str = ""
    happy: bool = True
    multi_task: bool = False
    capabilities: tuple[Capability, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(self.domains))
        object.__setattr__(self, "capabilities", tuple(self.capabilities))
        if not self.domains:
            raise InvariantViolation("scenario needs at least one domain")
        for capability in self.capabilities:
            if capability.domain not in self.domains:
                raise InvariantViolation(
                    f"capability domain {capability.domain!r} is not in {self.domains}"
                )

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Scenario":
        def read(kinds, *names, default=None):
            return _may(data, _spelling(data, *names), kinds, "scenario", default=default)

        capabilities = []
        for i, cap in enumerate(read(list[dict], "WizardCapabilities", "wizardCapabilities",
                                     "capabilities") or ()):
            task = _need(cap, _spelling(cap, "Task", "task"), str, f"capability {i}")
            domain = _need(cap, _spelling(cap, "Domain", "domain"), str, f"capability {i}")
            if not task or not domain:
                raise InvariantViolation("capability needs Task and Domain")
            capabilities.append(Capability(task=task, domain=domain))
        return cls(
            domains=_need(data, _spelling(data, "Domains", "domains"), list[str], "scenario"),
            user_task=read(str, "UserTask", "userTask", "user_task") or "",
            wizard_task=read(str, "WizardTask", "wizardTask", "wizard_task") or "",
            happy=read(bool, "Happy", "happy", default=True),
            multi_task=read(bool, "MultiTask", "multiTask", "multi_task", default=False),
            capabilities=capabilities,
        )

    def to_dict(self) -> dict[str, Any]:
        """External form with the capitalized keys."""
        return {
            "Domains": list(self.domains),
            "UserTask": self.user_task,
            "WizardTask": self.wizard_task,
            "Happy": self.happy,
            "MultiTask": self.multi_task,
            "WizardCapabilities": [
                {"Task": c.task, "Domain": c.domain} for c in self.capabilities
            ],
        }


@dataclass(frozen=True)
class ChartNode:
    id: str
    label: str
    entry: bool = False


@dataclass(frozen=True)
class ChartEdge:
    source: str
    target: str
    label: str | None = None


@dataclass(frozen=True)
class Flowchart:
    """A task flowchart: labeled step nodes with exactly one entry."""

    task: str
    nodes: tuple[ChartNode, ...]
    edges: tuple[ChartEdge, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        ids = {node.id for node in self.nodes}
        if len(ids) != len(self.nodes):
            raise InvariantViolation("flowchart node ids must be unique")
        for edge in self.edges:
            if edge.source not in ids or edge.target not in ids:
                raise InvariantViolation(
                    f"edge {edge.source!r}->{edge.target!r} references a missing node"
                )
        entries = [node for node in self.nodes if node.entry]
        if len(entries) != 1:
            raise InvariantViolation(
                f"flowchart needs exactly one entry node, found {len(entries)}"
            )

    @property
    def entry(self) -> ChartNode:
        return next(node for node in self.nodes if node.entry)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Flowchart":
        nodes = [
            ChartNode(id=_need(n, "id", str, f"node {i}"),
                      label=_need(n, "label", str, f"node {i}"),
                      entry=_may(n, "entry", bool, f"node {i}", default=False))
            for i, n in enumerate(_may(data, "nodes", list[dict], "flowchart", default=[]))
        ]
        edges = [
            ChartEdge(source=_need(e, "from", str, f"edge {i}"),
                      target=_need(e, "to", str, f"edge {i}"),
                      label=_may(e, "label", str, f"edge {i}"))
            for i, e in enumerate(_may(data, "edges", list[dict], "flowchart", default=[]))
        ]
        return cls(task=_may(data, "task", str, "flowchart") or "", nodes=nodes, edges=edges)


@dataclass(frozen=True)
class DatasetRoot:
    """Read-only handle to a scenario dataset directory."""

    path: Path


def set_dataset_root(path: str | Path) -> DatasetRoot:
    """Resolve and validate the dataset root directory."""
    resolved = Path(path).resolve()
    if not resolved.is_dir():
        raise NotADirectory(f"{path!s} is not a readable directory")
    return DatasetRoot(path=resolved)


def load_dialog(root: DatasetRoot, dialog_id: int) -> Dialog:
    """Load dialogues/{id}.json, attaching scenarios/{id}.json when present."""
    path = root.path / "dialogues" / f"{dialog_id}.json"
    if not path.is_file():
        raise NotFound(f"no dialogue with id {dialog_id} under {root.path}", dialog_id)
    dialog = read_dialog_file(path)
    scenario_path = root.path / "scenarios" / f"{dialog_id}.json"
    if scenario_path.is_file():
        dialog = replace(dialog, scenario=_read_json(scenario_path, "scenario"))
    return dialog


def load_scenario(root: DatasetRoot, dialog_id: int) -> Scenario:
    """Load scenarios/{id}.json as a normalized Scenario."""
    path = root.path / "scenarios" / f"{dialog_id}.json"
    if not path.is_file():
        raise NotFound(f"no scenario with id {dialog_id} under {root.path}", dialog_id)
    try:
        return Scenario.from_dict(_read_json(path, "scenario"))
    except InvariantViolation as exc:
        raise ParseError(f"scenario {dialog_id}: {exc}") from exc


def load_flowchart(root: DatasetRoot, domain: str, task: str) -> Flowchart:
    """Load flowcharts/{domain}/{task}.json."""
    path = root.path / "flowcharts" / domain / f"{task}.json"
    if not path.is_file():
        raise NotFound(f"no flowchart for {domain}/{task} under {root.path}", task)
    try:
        return Flowchart.from_dict(_read_json(path, "flowchart"))
    except InvariantViolation as exc:
        raise ParseError(f"flowchart {domain}/{task}: {exc}") from exc


def describe_scenario(scenario: Scenario) -> str:
    """Deterministic natural-language rendering of a scenario."""
    lines = [f"The scenario covers the following domain(s): {', '.join(scenario.domains)}."]
    if scenario.user_task:
        lines.append(f"The user's task: {scenario.user_task}.")
    if scenario.wizard_task:
        lines.append(f"The wizard's task: {scenario.wizard_task}.")
    if scenario.happy:
        lines.append("The user is cooperative (happy path).")
    else:
        lines.append("The user is uncooperative and may complicate the task (unhappy path).")
    if scenario.multi_task:
        lines.append("The scenario involves multiple tasks.")
    else:
        lines.append("The scenario involves a single task.")
    for capability in scenario.capabilities:
        lines.append(f"The wizard can {capability.task} in {capability.domain}.")
    return "\n".join(lines)


def describe_flowchart(chart: Flowchart) -> str:
    """Deterministic numbered rendering via a depth-first walk from the entry.

    Edge labels annotate the step they lead to; edges back to an already
    numbered step are annotated inline. A chart in which every reachable
    node keeps flowing (a cycle with no terminal step) cannot be rendered
    as a step list and falls back to a plain edge list.
    """
    by_id = {node.id: node for node in chart.nodes}
    adjacency: dict[str, list[ChartEdge]] = {node.id: [] for node in chart.nodes}
    for edge in chart.edges:
        adjacency[edge.source].append(edge)

    reachable: set[str] = set()
    stack = [chart.entry.id]
    while stack:
        node_id = stack.pop()
        if node_id in reachable:
            continue
        reachable.add(node_id)
        stack.extend(edge.target for edge in adjacency[node_id])
    if reachable and all(adjacency[node_id] for node_id in reachable):
        # cyclic with no exit: no terminal step to end a numbered walk on
        lines = []
        for edge in chart.edges:
            suffix = f" [{edge.label}]" if edge.label else ""
            lines.append(f"{by_id[edge.source].label} -> {by_id[edge.target].label}{suffix}")
        return "\n".join(lines)

    steps: dict[str, int] = {}
    lines = []

    def visit(node_id: str, via: str | None) -> None:
        steps[node_id] = len(steps) + 1
        line = f"{steps[node_id]}. {by_id[node_id].label}"
        if via:
            line += f" (when {via})"
        index = len(lines)
        lines.append(line)
        for edge in adjacency[node_id]:
            if edge.target in steps:
                if edge.label:
                    lines[index] += f" (when {edge.label}: back to step {steps[edge.target]})"
                else:
                    lines[index] += f" (then back to step {steps[edge.target]})"
            else:
                visit(edge.target, edge.label)

    visit(chart.entry.id, None)
    return "\n".join(lines)


def flowchart_flow_graph(chart: Flowchart) -> FlowGraph:
    """Adapt a flowchart into a FlowGraph so it can be exported as DOT.

    Every edge gets count 1; probabilities are uniform over a node's
    outgoing edges; START points at the entry and terminal steps flow
    into END.
    """
    nodes = [
        FlowNode(id=node.id, speaker_side="step", label=node.label[:40], size=1)
        for node in chart.nodes
    ]
    nodes.append(FlowNode(id=START_NODE, speaker_side="", label=START_NODE, size=1))
    nodes.append(FlowNode(id=END_NODE, speaker_side="", label=END_NODE, size=1))
    outgoing: dict[str, int] = {}
    for edge in chart.edges:
        outgoing[edge.source] = outgoing.get(edge.source, 0) + 1
    edges = [FlowEdge(source=START_NODE, target=chart.entry.id, count=1, probability=1.0)]
    for edge in chart.edges:
        edges.append(
            FlowEdge(source=edge.source, target=edge.target, count=1,
                     probability=1.0 / outgoing[edge.source])
        )
    for node in chart.nodes:
        if node.id not in outgoing:
            edges.append(FlowEdge(source=node.id, target=END_NODE, count=1, probability=1.0))
    return FlowGraph(
        nodes=tuple(sorted(nodes, key=lambda n: n.id)),
        edges=tuple(sorted(edges, key=lambda e: (e.source, e.target))),
    )


HAPPY_PERSONALITY = (
    "cooperative, friendly, and happy to follow the assistant's guidance"
)
UNHAPPY_PERSONALITY = (
    "uncooperative: hesitant, easily sidetracked, and inclined to question the assistant"
)
SINGLE_TASK_CLAUSE = "; focused on completing a single task"
MULTI_TASK_CLAUSE = "; juggling several related tasks in one conversation"


def agents_for_scenario(
    scenario: Scenario,
    backend: Backend,
    root: DatasetRoot | None = None,
) -> tuple[Agent, Agent]:
    """Build the (system, user) agent pair for a scenario.

    The system agent plays the wizard: its rules carry the wizard task,
    the capability list, and, when a dataset root is given and a flowchart
    exists for a capability, that flowchart's step summary. The user
    agent's circumstances carry the user task; the happy and multi-task
    flags shape its personality. The system agent initiates.
    """
    rules = []
    if scenario.wizard_task:
        rules.append(f"Your task: {scenario.wizard_task}.")
    if scenario.capabilities:
        rules.append("You can help with these tasks: " + "; ".join(
            f"{c.task} ({c.domain})" for c in scenario.capabilities
        ) + ".")
    if root is not None:
        for capability in scenario.capabilities:
            try:
                chart = load_flowchart(root, capability.domain, capability.task)
            except NotFound:
                continue
            rules.append(f"Steps for {capability.task}:\n{describe_flowchart(chart)}")

    wizard = Persona(
        name="System",
        role="assistant/wizard",
        background=f"An assistant for the {', '.join(scenario.domains)} domain(s).",
        rules="\n".join(rules) if rules else None,
    )
    personality = HAPPY_PERSONALITY if scenario.happy else UNHAPPY_PERSONALITY
    personality += MULTI_TASK_CLAUSE if scenario.multi_task else SINGLE_TASK_CLAUSE
    user = Persona(
        name="User",
        role="user",
        personality=personality,
        circumstances=f"You need the following: {scenario.user_task}." if scenario.user_task else None,
    )
    return Agent(backend, wizard), Agent(backend, user)
