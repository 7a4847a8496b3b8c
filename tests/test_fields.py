"""Typed-field reading of every JSON input: run specs, personas, scenarios,
flowcharts and dialog files.

Each field is read by one reader that checks its JSON type and never
coerces. The property tests take a valid document of each kind, replace
one field's value with a value of another JSON type, and check that the
library raises the package error for that input and that the CLI exits 1
with exactly one ``error:`` line. The example tests pin inputs that were
once coerced or crashed with a traceback.
"""

from __future__ import annotations

import copy
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dialogforge import (
    ConfigError,
    Flowchart,
    InvariantViolation,
    ParseError,
    Persona,
    Scenario,
    deserialize_dialog,
)
from dialogforge.cli import load_runspec, main, make_agents, make_backend
from helpers import invoke

STAR = Path(__file__).parent / "fixtures" / "star"


def _spec(backend: dict) -> dict:
    return {
        "backend": backend,
        "personas": {
            "Alice": {"role": "barista", "personality": "cheerful",
                      "firstUtterance": "Welcome in!"},
            "Bob": {"role": "customer", "language": "English"},
        },
        "orchestrators": [
            {"agent": "Alice", "type": "length", "params": {"min": 3, "max": 6}},
            {"agent": "Bob", "type": "change_mind",
             "params": {"probability": 0.5, "reasons": ["the price"], "maxTimes": 2}},
            {"agent": "Alice", "type": "simple_reflex",
             "params": {"contains": "coffee", "instruction": "Recommend the blend.",
                        "persist": True}},
            {"type": "simple_response",
             "params": {"candidates": ["Milk?", "Anything else?"], "topK": 1}},
            {"agent": "Bob", "type": "instruction_list",
             "params": {"plan": {"0": "Ask the price."}, "persist": False}},
        ],
        "seed": 7,
        "maxTurns": 6,
        "outputDir": "out",
    }


SCRIPTED_SPEC = _spec({"scripted": ["Hello.", "Bye. [END]"], "cycle": True})
# port 9 on the loopback: a spec accepted by mistake fails fast with exit 2
WIRE_SPEC = _spec({"baseUrl": "http://127.0.0.1:9", "model": "test-model"})
PERSONA = {"name": "Alice", "role": "barista", "background": "Works mornings.",
           "personality": "cheerful", "circumstances": "Short-staffed.", "rules": "Be brief.",
           "language": "English"}
SCENARIO = json.loads((STAR / "scenarios" / "101.json").read_text(encoding="utf-8"))
FLOWCHART = {
    "task": "open_account",
    "nodes": [{"id": "greet", "label": "Greet", "entry": True},
              {"id": "open", "label": "Open the account", "entry": False}],
    "edges": [{"from": "greet", "to": "open", "label": "ready"}],
}
DIALOG = {
    "formatVersion": "1", "id": 3, "model": "m", "seed": 5,
    "scenario": {"topic": "coffee"}, "personas": {"A": {"name": "A"}},
    "turns": [{"speaker": "A", "text": "Hi"}, {"speaker": "B", "text": "Bye"}],
    "events": [
        {"agent": "A", "action": "instruct", "actionLabel": "X", "text": "greet",
         "timestamp": 0},
        {"agent": "A", "action": "utter", "text": "Hi", "timestamp": 1},
        {"agent": "B", "action": "utter", "text": "Bye", "timestamp": 2},
    ],
}

# The documents above hold no null, so a field's JSON type is that of its
# value. These fields also accept null for "not set"; "*" stands for a list
# index.
PERSONA_TEXTS = {"role", "background", "personality", "circumstances", "rules", "language"}
SPEC_NULLABLE = {
    "seed", "backend.baseUrl", "backend.model", "orchestrators.*.agent",
    "orchestrators.*.params.reasons", "orchestrators.*.params.topK",
    *(f"personas.{name}.{field}" for name in ("Alice", "Bob")
      for field in PERSONA_TEXTS | {"firstUtterance"}),
}
NULLABLE = {
    "spec": SPEC_NULLABLE,
    "persona": PERSONA_TEXTS,
    "scenario": {"UserTask", "WizardTask", "WizardCapabilities"},
    "flowchart": {"task", "edges.*.label"},
    "dialog": {"id", "model", "seed", "scenario", "personas", "events",
               "events.*.actionLabel"},
}
NUMBERS = {"orchestrators.*.params.probability"}  # integer or fractional
# free-form metadata maps whose contents the dialog format carries untouched
OPAQUE = {"scenario", "personas"}

JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-3, 50),
    "float": st.floats(-3, 50, allow_nan=False),
    "str": st.sampled_from(["", "3", "false", "true", "abc"]),
    "list": st.lists(st.sampled_from(["a", 1, None]), max_size=2),
    "object": st.dictionaries(st.sampled_from(["a", "id"]), st.integers(0, 3), max_size=2),
}


def _kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    for kind, cls in (("int", int), ("float", float), ("str", str), ("list", list)):
        if isinstance(value, cls):
            return kind
    return "object"


def _paths(value, prefix=(), opaque=frozenset()):
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        path = prefix + (key,)
        yield path
        if isinstance(item, (dict, list)) and _shape(path) not in opaque:
            yield from _paths(item, path, opaque)


def _shape(path) -> str:
    return ".".join("*" if isinstance(key, int) else key for key in path)


@st.composite
def mutations(draw, doc: dict, doc_kind: str):
    """``doc`` with one field's value replaced by a value of another JSON type."""
    opaque = OPAQUE if doc_kind == "dialog" else frozenset()
    path = draw(st.sampled_from(list(_paths(doc, opaque=opaque))))
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    allowed = {_kind(parent[path[-1]])}
    if _shape(path) in NULLABLE[doc_kind]:
        allowed.add("null")
    if _shape(path) in NUMBERS:
        allowed |= {"int", "float"}
    kind = draw(st.sampled_from(sorted(set(JSON_VALUES) - allowed)))
    parent[path[-1]] = draw(JSON_VALUES[kind])
    return doc


def _write(path: Path, doc) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _cli(args: list[str], cwd: Path):
    """``dialogforge ARGS`` run from a fresh temporary directory under ``cwd``."""
    with tempfile.TemporaryDirectory(dir=cwd) as tmp, pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp)
        return invoke(main, args)


def assert_one_error_line(result) -> None:
    """Exit 1 through the package's error handling, not an uncaught exception."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, result.output


def _load_spec(path: Path) -> None:
    spec = load_runspec(path)
    make_agents(spec, make_backend(spec))


def _star_run(tmp: Path, relative: str, doc: dict):
    root = tmp / "root"
    shutil.copytree(STAR, root)
    _write(root / relative, doc)
    spec = _write(tmp / "spec.json", SCRIPTED_SPEC)
    return _cli(["star-run", "--root", str(root), "--spec", str(spec), "101"], tmp)


@pytest.fixture(autouse=True)
def _no_backend_env(monkeypatch):
    monkeypatch.delenv("DIALOGFORGE_BASE_URL", raising=False)


PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestValidDocuments:
    """The unmutated documents are valid, so every failure below is the mutation's."""

    @pytest.mark.parametrize("spec", [SCRIPTED_SPEC, WIRE_SPEC], ids=["scripted", "wire"])
    def test_spec(self, spec, tmp_path):
        _load_spec(_write(tmp_path / "spec.json", spec))

    def test_scripted_spec_generates(self, tmp_path):
        spec = _write(tmp_path / "spec.json", SCRIPTED_SPEC)
        assert _cli(["generate", "--spec", str(spec)], tmp_path).exit_code == 0

    def test_documents(self):
        assert Persona.from_dict(PERSONA).to_dict() == PERSONA
        assert Scenario.from_dict(SCENARIO).to_dict() == SCENARIO
        Flowchart.from_dict(FLOWCHART)
        deserialize_dialog(json.dumps(DIALOG))

    @pytest.mark.parametrize("relative, doc", [
        ("scenarios/101.json", SCENARIO),
        ("flowcharts/banking/open_account.json", FLOWCHART),
    ], ids=["scenario", "flowchart"])
    def test_star_run(self, relative, doc, tmp_path):
        assert _star_run(tmp_path, relative, doc).exit_code == 0


@PROPERTY
@given(st.sampled_from([SCRIPTED_SPEC, WIRE_SPEC]).flatmap(lambda s: mutations(s, "spec")))
def test_ill_typed_spec_field_rejected_property(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "spec.json", spec)
        with pytest.raises(ConfigError):
            _load_spec(path)
        assert_one_error_line(_cli(["generate", "--spec", str(path)], Path(tmp)))


@PROPERTY
@given(mutations(PERSONA, "persona"))
def test_ill_typed_persona_field_rejected_property(persona):
    with pytest.raises(ConfigError):
        Persona.from_dict(persona)


@PROPERTY
@given(mutations(SCENARIO, "scenario"))
def test_ill_typed_scenario_field_rejected_property(scenario):
    with pytest.raises(InvariantViolation):
        Scenario.from_dict(scenario)
    with tempfile.TemporaryDirectory() as tmp:
        assert_one_error_line(_star_run(Path(tmp), "scenarios/101.json", scenario))


@PROPERTY
@given(mutations(FLOWCHART, "flowchart"))
def test_ill_typed_flowchart_field_rejected_property(chart):
    with pytest.raises(InvariantViolation):
        Flowchart.from_dict(chart)
    with tempfile.TemporaryDirectory() as tmp:
        assert_one_error_line(
            _star_run(Path(tmp), "flowcharts/banking/open_account.json", chart))


@PROPERTY
@given(mutations(DIALOG, "dialog"))
def test_ill_typed_dialog_field_rejected_property(doc):
    with pytest.raises(ParseError):
        deserialize_dialog(json.dumps(doc))
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "dialog.json", doc)
        assert_one_error_line(_cli(["print", str(path)], Path(tmp)))


def _with_params(kind: str, **params) -> dict:
    return {**SCRIPTED_SPEC, "orchestrators": [{"type": kind, "params": params}]}


def _with_persona(**fields) -> dict:
    return {**SCRIPTED_SPEC,
            "personas": {"Alice": {"role": "barista", **fields}, "Bob": {"role": "customer"}}}


@pytest.mark.parametrize("spec", [
    _with_params("change_mind", probability=1.0, reasons="changed plans"),
    _with_params("simple_response", candidates="abc"),
    _with_params("length", min="3", max=6),
    _with_params("length", min=3, max=7.9),
    _with_params("simple_reflex", contains="x", instruction="y", persist="false"),
    _with_params("instruction_list", plan={"0": "x"}, persist="false"),
    {**SCRIPTED_SPEC, "backend": {"scripted": ["Hi. [END]"], "cycle": "false"}},
    {**SCRIPTED_SPEC, "backend": {"baseUrl": 5, "model": "m"}},
    _with_persona(firstUtterance=5),
    _with_persona(role=["x"]),
], ids=["reasons-string", "candidates-string", "min-string", "max-fraction",
        "reflex-persist-string", "plan-persist-string", "cycle-string", "baseUrl-number",
        "firstUtterance-number", "role-list"])
def test_ill_typed_spec_example_exits_1(spec, tmp_path):
    path = _write(tmp_path / "spec.json", spec)
    assert_one_error_line(_cli(["generate", "--spec", str(path)], tmp_path))


@pytest.mark.parametrize("field, value", [("Domains", "Bank"), ("Happy", "false")])
def test_ill_typed_scenario_example_rejected(field, value):
    with pytest.raises(InvariantViolation, match=field):
        Scenario.from_dict({**SCENARIO, field: value})


def test_string_entry_flag_rejected():
    chart = copy.deepcopy(FLOWCHART)
    chart["nodes"][0]["entry"] = False
    chart["nodes"][1]["entry"] = "false"
    with pytest.raises(InvariantViolation, match="entry"):
        Flowchart.from_dict(chart)


def test_persona_without_name_is_config_error():
    with pytest.raises(ConfigError, match="name"):
        Persona.from_dict({"role": "barista"})
