"""What each command loads: numpy and the stdlib HTTP client arrive only with
the code that uses them, requests and click never do, the read commands load
only the dialog model, the errors, the CLI and the flow module of the package
and no thread pool, and the first import of the HTTP client from several pool
threads at once gives the same files as a serial run.

Every case runs in a fresh interpreter, since the test process has long since
imported both modules.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dialogforge.cli as cli
from dialogforge.cli import main
from test_backends import MockServer
from test_cli import SRC, wire_reply, write_spec

FIXTURES = Path(__file__).parent / "fixtures"
DIALOG = FIXTURES / "star" / "dialogues" / "101.json"
HEAVY = ("numpy", "requests", "http.client", "click")
POOL = "concurrent.futures"
# the package modules print, filter, flow and --help load
READ_PATH = ["dialogforge", "dialogforge.cli", "dialogforge.dialog", "dialogforge.errors",
             "dialogforge.flow"]

# argv[1] is the report file; argv[2:] are CLI arguments, or none to import
# only the package
PROBE = """
import json, sys
code = 0
if len(sys.argv) > 2:
    from dialogforge.cli import main
    try:
        main(args=sys.argv[2:], prog_name="dialogforge")
    except SystemExit as exc:
        code = exc.code
else:
    import dialogforge
with open(sys.argv[1], "w") as report:
    json.dump({"code": code,
               "loaded": [m for m in %r if m in sys.modules],
               "package": sorted(m for m in sys.modules
                                 if m == "dialogforge" or m.startswith("dialogforge.")),
               "pool": %r in sys.modules}, report)
""" % (HEAVY, POOL)


def fresh_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def probe(tmp_path: Path, *args: str) -> dict:
    """What a fresh interpreter holds after ``dialogforge ARGS``: the HEAVY
    modules ("loaded"), the package's modules ("package") and whether the
    thread pool module is loaded ("pool")."""
    report = tmp_path / "report.json"
    subprocess.run([sys.executable, "-c", PROBE, str(report), *args], env=fresh_env(),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
                   check=True)
    result = json.loads(report.read_text())
    assert result["code"] in (0, None)
    return result


def heavy_modules_after(tmp_path: Path, *args: str) -> list[str]:
    """The HEAVY modules a fresh interpreter holds after ``dialogforge ARGS``."""
    return probe(tmp_path, *args)["loaded"]


def read_path_heavy_modules_after(tmp_path: Path, *args: str) -> list[str]:
    """``heavy_modules_after``, for a command that must load only the READ_PATH
    modules of the package and no thread pool."""
    result = probe(tmp_path, *args)
    assert result["package"] == READ_PATH
    assert not result["pool"]
    return result["loaded"]


@pytest.fixture
def mock():
    server = MockServer()
    yield server
    server.close()


class TestImportFootprint:
    def test_package_import_loads_neither(self, tmp_path):
        result = probe(tmp_path)
        assert result["package"] == ["dialogforge"]
        assert not result["pool"]
        assert result["loaded"] == []

    def test_help_loads_neither(self, tmp_path):
        assert read_path_heavy_modules_after(tmp_path, "--help") == []

    def test_print_loads_neither(self, tmp_path):
        assert read_path_heavy_modules_after(tmp_path, "print", str(DIALOG),
                                             "--orchestration") == []

    def test_filter_loads_neither(self, tmp_path):
        pattern = str(DIALOG.parent / "*.json")
        assert read_path_heavy_modules_after(tmp_path, "filter", pattern,
                                             "--min-turns", "1") == []

    def test_scripted_batch_loads_neither(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        result = probe(tmp_path, "batch", "--spec", str(spec), "-n", "2")
        assert result["loaded"] == []
        assert "dialogforge.agents" in result["package"]
        assert "dialogforge.scenarios" not in result["package"]
        assert "dialogforge.generators" not in result["package"]

    def test_flow_loads_numpy_only(self, tmp_path):
        out = tmp_path / "flow.dot"
        pattern = str(DIALOG.parent / "*.json")
        assert read_path_heavy_modules_after(tmp_path, "flow", pattern, "--k", "2",
                                             "--out", str(out)) == ["numpy"]
        assert out.read_text().startswith("digraph")

    def test_wire_generate_loads_http_client_only(self, tmp_path, mock):
        spec = write_spec(tmp_path / "spec.json",
                          backend={"baseUrl": mock.url, "model": "m"}, maxTurns=2)
        assert heavy_modules_after(tmp_path, "generate", "--spec", str(spec)) == ["http.client"]
        assert len(mock.requests) == 2


def test_first_requests_import_from_two_workers_matches_serial_run(runner, mock, tmp_path,
                                                                   monkeypatch):
    mock.behave = wire_reply
    spec = write_spec(tmp_path / "spec.json",
                      backend={"baseUrl": mock.url, "model": "m"}, maxTurns=6)
    out = tmp_path / "out"
    # a fresh interpreter at the default WIRE_WORKERS: the pool threads reach
    # HttpBackend's first `import http.client` and `import urllib.request` together
    child = subprocess.run(
        [sys.executable, "-m", "dialogforge.cli", "batch", "--spec", str(spec), "-n", "6"],
        env=fresh_env(), capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    shutil.rmtree(out)

    monkeypatch.setattr(cli, "WIRE_WORKERS", 1)
    result = runner.invoke(main, ["batch", "--spec", str(spec), "-n", "6"])
    assert result.exit_code == 0, result.output
    assert len(files) == 6
    assert files == {p.name: p.read_bytes() for p in out.iterdir()}
    assert child.stderr == result.stderr
