"""Differential property of the turn-taking engine.

``Agent.dialog_with`` collects turns and events in lists and builds the
``Dialog`` once. The reference below is the engine it replaced (both
agents here share one model name): it rebuilds a frozen ``Dialog`` through
``Dialog.append_event``/``append_utterance`` for every event and hands that
``Dialog`` to the orchestrators. Both engines must write the same bytes,
send the same prompts, show orchestrators the same turns and leave the
agents with the same memories.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from dialogforge import (
    Agent,
    Dialog,
    Event,
    InvariantViolation,
    Message,
    Persona,
    SamplingParams,
    ScriptedBackend,
    serialize_dialog,
)
from dialogforge.agents import _split_end_marker
from dialogforge.orchestrators import (
    ChangeMindOrchestrator,
    InstructionListOrchestrator,
    LengthOrchestrator,
    Orchestrator,
    SimpleReflexOrchestrator,
    SimpleResponseOrchestrator,
)
from dialogforge.seeding import derive_seed


def reference_respond(agent: Agent, incoming: str | None, dialog: Dialog) -> tuple[str, list[Event]]:
    events: list[Event] = []
    kept: list[Message] = []
    partner = [] if incoming is None else [Message("user", incoming)]
    if agent.turns == 0 and agent.first_utterance is not None:
        reply = agent.first_utterance
    else:
        fired: list[Message] = []
        for orchestrator in agent.orchestrators:
            text = orchestrator.instruct(dialog, incoming)
            if text is None:
                continue
            if not text:
                raise InvariantViolation("instruction text must be non-empty")
            message = Message("system", text)
            fired.append(message)
            if orchestrator.persist:
                kept.append(message)
            events.append(
                Event(
                    agent=agent.name,
                    action="instruct",
                    action_label=orchestrator.name,
                    text=text,
                    timestamp=len(dialog.events) + len(events),
                )
            )
        params = SamplingParams(seed=agent.seed)
        reply = agent.backend.complete(agent.memory + fired + partner, params)
    agent.memory += kept + partner + [Message("assistant", reply)]
    agent.turns += 1
    return reply, events


def reference_dialog_with(first: Agent, other: Agent, id: int | None, seed: int,
                          max_turns: int) -> Dialog:
    first.reset(derive_seed(seed, 0))
    other.reset(derive_seed(seed, 1))
    dialog = Dialog(
        id=id,
        model=first.backend.model,
        seed=seed,
        personas={first.name: first.persona.to_dict(), other.name: other.persona.to_dict()},
    )
    speaker, listener = first, other
    incoming: str | None = None
    for _ in range(max_turns):
        raw, events = reference_respond(speaker, incoming, dialog)
        for event in events:
            dialog = dialog.append_event(event)
        ended, text = _split_end_marker(raw)
        dialog = dialog.append_utterance(speaker.name, text, len(dialog.events))
        if ended:
            break
        incoming = dialog.turns[-1].text
        speaker, listener = listener, speaker
    return dialog


class RecordingBackend(ScriptedBackend):
    """A cycling script that keeps every prompt it is sent."""

    def __init__(self, script: list[str]):
        super().__init__(script, cycle=True)
        self.prompts: list[list[Message]] = []

    def _complete(self, messages, params):
        self.prompts.append(list(messages))
        return super()._complete(messages, params)


class TurnsProbe(Orchestrator):
    """Records the turns it is shown and fires on every ``period``-th call."""

    def __init__(self, period: int):
        super().__init__()
        self.period = period
        self.seen: list[tuple] = []

    def instruct(self, dialog, utterance):
        turns = dialog.turns if isinstance(dialog, Dialog) else dialog
        self.seen.append((tuple(turns), utterance))
        return f"probe {len(self.seen)}" if len(self.seen) % self.period == 0 else None


WORDS = ["tea", "price", "refund", "hello", "thanks", "later"]
line = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join)
reply = st.tuples(line, st.sampled_from(["", " [END]", "\n", " [END]\n"])).map("".join)

orchestrator_specs = st.one_of(
    st.tuples(st.just("length"), st.integers(1, 8), st.integers(0, 8)),
    st.tuples(st.just("change_mind"), st.sampled_from([0.0, 0.3, 1.0]),
              st.lists(line, max_size=2), st.integers(1, 3)),
    st.tuples(st.just("simple_reflex"), st.sampled_from(WORDS), line, st.booleans()),
    st.tuples(st.just("simple_response"), st.lists(line, min_size=1, max_size=4), st.integers(1, 4)),
    st.tuples(st.just("instruction_list"), st.dictionaries(st.integers(0, 6), line, max_size=3),
              st.booleans()),
    st.tuples(st.just("probe"), st.integers(1, 3)),
)

agent_specs = st.fixed_dictionaries({
    "script": st.lists(reply, min_size=1, max_size=6),
    "first": st.one_of(st.none(), line),
    "stack": st.lists(orchestrator_specs, max_size=4),
})


def build_orchestrator(spec) -> Orchestrator:
    kind, *args = spec
    if kind == "length":
        low, extra = args
        return LengthOrchestrator(low, low + extra)
    if kind == "change_mind":
        probability, reasons, max_times = args
        return ChangeMindOrchestrator(probability, reasons, max_times)
    if kind == "simple_reflex":
        word, instruction, persist = args
        return SimpleReflexOrchestrator(lambda u: word in u, instruction, persist=persist)
    if kind == "simple_response":
        candidates, top_k = args
        return SimpleResponseOrchestrator(candidates, min(top_k, len(candidates)))
    if kind == "instruction_list":
        plan, persist = args
        return InstructionListOrchestrator(plan, persist=persist)
    return TurnsProbe(*args)


def build_agent(spec: dict, name: str) -> Agent:
    agent = Agent(RecordingBackend(spec["script"]), Persona(name=name), first_utterance=spec["first"])
    for orchestrator_spec in spec["stack"]:
        agent | build_orchestrator(orchestrator_spec)
    return agent


def observed(agents: tuple[Agent, Agent]) -> list:
    return [(agent.memory, agent.turns, agent.backend.prompts,
             [o.seen for o in agent.orchestrators if isinstance(o, TurnsProbe)])
            for agent in agents]


@settings(max_examples=200, deadline=None)
@given(agent_specs, agent_specs, st.integers(1, 30), st.integers(0, 2**32),
       st.one_of(st.none(), st.integers(0, 99)))
def test_engine_matches_reference(a, b, max_turns, seed, id):
    new = build_agent(a, "Alice"), build_agent(b, "Bob")
    old = build_agent(a, "Alice"), build_agent(b, "Bob")
    got = new[0].dialog_with(new[1], id=id, seed=seed, max_turns=max_turns)
    want = reference_dialog_with(old[0], old[1], id, seed, max_turns)
    assert serialize_dialog(got) == serialize_dialog(want)
    assert observed(new) == observed(old)
