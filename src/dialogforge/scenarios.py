"""Task-oriented scenario schema, dataset-root access, and agent construction.

A dataset root is a directory, passed around as the resolved Path that
``set_dataset_root`` returns, with the layout:

    dialogues/{id}.json            canonical structured dialogs
    scenarios/{id}.json            scenario objects (capitalized keys)
    flowcharts/{domain}/{task}.json task flowcharts

A domain or task that is ``..`` or holds a path separator names no flowchart.
Scenario files use the capitalized external keys (Domains, UserTask,
WizardTask, Happy, MultiTask, WizardCapabilities); lowercase variants are
accepted on input and normalized.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from .agents import Agent, Persona
from .backends import Backend
from .dialog import Dialog, _optional, _read_json, _require, read_dialog_file
from .errors import InvariantViolation, NotADirectory, NotFound, ParseError
from .flow import END_NODE, START_NODE, FlowGraph, FlowNode, _transition_graph


# an ill-typed scenario or flowchart field breaks the object's invariants
_need = functools.partial(_require, error=InvariantViolation)
_may = functools.partial(_optional, error=InvariantViolation)


def _spelling(mapping: dict[str, Any], *names: str) -> str:
    """The one of ``names`` present in ``mapping``, else the first name."""
    present = [name for name in names if name in mapping]
    if len(present) > 1:
        raise InvariantViolation(f"keys {present} spell one field; give one of them")
    return (present or names)[0]


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
        reserved = sorted(ids & {START_NODE, END_NODE})
        if reserved:
            raise InvariantViolation(f"flowchart step ids {reserved} are reserved")
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


def set_dataset_root(path: str | Path) -> Path:
    """Resolve and validate the dataset root directory."""
    resolved = Path(path).resolve()
    if not resolved.is_dir():
        raise NotADirectory(f"{path!s} is not a readable directory")
    return resolved


def _load(root: Path, parts: tuple[str, ...], missing: str, context: str,
          parse: Callable[[Path], Any]) -> Any:
    """``parse`` of the dataset file ``root/parts[0]/.../parts[-1].json``.

    A part that is ``..`` or holds a path separator names no file: nothing outside root is read.
    """
    *folders, stem = parts
    path = root.joinpath(*folders, f"{stem}.json")
    if any(part == ".." or "/" in part or "\\" in part for part in parts) or not path.is_file():
        raise NotFound(f"no {missing} under {root}")
    try:
        return parse(path)
    except InvariantViolation as exc:
        raise ParseError(f"{context}: {exc}") from exc


def load_dialog(root: Path, dialog_id: int) -> Dialog:
    """Load dialogues/{id}.json, attaching scenarios/{id}.json, if any, via load_scenario."""
    dialog = _load(root, ("dialogues", str(dialog_id)), f"dialogue with id {dialog_id}",
                   f"dialogue {dialog_id}", read_dialog_file)
    if (root / "scenarios" / f"{dialog_id}.json").is_file():
        dialog = replace(dialog, scenario=load_scenario(root, dialog_id).to_dict())
    return dialog


def load_scenario(root: Path, dialog_id: int) -> Scenario:
    """Load scenarios/{id}.json as a normalized Scenario."""
    return _load(root, ("scenarios", str(dialog_id)), f"scenario with id {dialog_id}",
                 f"scenario {dialog_id}",
                 lambda path: Scenario.from_dict(_read_json(path, "scenario")))


def load_flowchart(root: Path, domain: str, task: str) -> Flowchart:
    """Load flowcharts/{domain}/{task}.json."""
    return _load(root, ("flowcharts", domain, task), f"flowchart for {domain}/{task}",
                 f"flowchart {domain}/{task}",
                 lambda path: Flowchart.from_dict(_read_json(path, "flowchart")))


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

    steps: dict[str, int] = {}
    lines: list[str] = []
    # depth first: a stack of each step's edges not yet followed; a sourceless edge starts it
    walk = [iter([ChartEdge("", chart.entry.id)])]
    while walk:
        edge = next(walk[-1], None)
        if edge is None:
            walk.pop()
        elif edge.target in steps:  # the source's line is numbered steps[source]
            when = f"when {edge.label}:" if edge.label else "then"
            lines[steps[edge.source] - 1] += f" ({when} back to step {steps[edge.target]})"
        else:
            steps[edge.target] = len(steps) + 1
            via = f" (when {edge.label})" if edge.label else ""
            lines.append(f"{steps[edge.target]}. {by_id[edge.target].label}{via}")
            walk.append(iter(adjacency[edge.target]))
    if all(adjacency[node_id] for node_id in steps):
        # cyclic with no exit: no terminal step ends the numbered walk
        lines = []
        for edge in chart.edges:
            suffix = f" [{edge.label}]" if edge.label else ""
            lines.append(f"{by_id[edge.source].label} -> {by_id[edge.target].label}{suffix}")
    return "\n".join(lines)


def flowchart_flow_graph(chart: Flowchart) -> FlowGraph:
    """Adapt a flowchart into a FlowGraph so it can be exported as DOT.

    START points at the entry, each chart edge is one transition, and each
    terminal step (one with no outgoing edge) flows into END. Counts and
    probabilities follow the corpus rule of ``build_flow_graph``: an edge
    listed n times has count n, and a step's outgoing probabilities are
    proportional to those counts (uniform when no edge repeats).
    """
    sources = {edge.source for edge in chart.edges}
    transitions = [
        (START_NODE, chart.entry.id),
        *((edge.source, edge.target) for edge in chart.edges),
        *((node.id, END_NODE) for node in chart.nodes if node.id not in sources),
    ]
    nodes = [
        FlowNode(id=node.id, speaker_side="step", label=node.label[:40], size=1)
        for node in chart.nodes
    ]
    return _transition_graph(nodes, transitions, end_size=1)


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
    root: Path | None = None,
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
