"""Tests for the backend contract, the scripted double, and the wire client."""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from dialogforge import (
    BackendExhausted,
    ConfigError,
    EmptyCompletion,
    HttpBackend,
    Message,
    SamplingParams,
    ScriptedBackend,
    WireError,
)
from dialogforge.cli import main

SYSTEM = [Message("system", "You are a test.")]
PARAMS = SamplingParams()


class TestMessage:
    def test_roles_validated(self):
        with pytest.raises(Exception):
            Message("tool", "hi")

    def test_empty_content_only_for_system(self):
        Message("system", "")
        with pytest.raises(Exception):
            Message("user", "")


class TestSamplingParams:
    def test_defaults(self):
        assert PARAMS.temperature == 1.0
        assert PARAMS.max_tokens == 512
        assert PARAMS.seed is None

    def test_negative_temperature_rejected(self):
        with pytest.raises(ConfigError):
            SamplingParams(temperature=-0.1)


class TestScriptedBackend:
    def test_passthrough(self):
        assert ScriptedBackend(["Hello!"]).complete(SYSTEM, PARAMS) == "Hello!"

    def test_exhaustion(self):
        backend = ScriptedBackend(["a", "b"])
        assert backend.complete(SYSTEM, PARAMS) == "a"
        assert backend.complete(SYSTEM, PARAMS) == "b"
        with pytest.raises(BackendExhausted):
            backend.complete(SYSTEM, PARAMS)

    def test_empty_script_exhausts_immediately(self):
        with pytest.raises(BackendExhausted):
            ScriptedBackend([]).complete(SYSTEM, PARAMS)

    def test_cycle_wraps(self):
        backend = ScriptedBackend(["x"], cycle=True)
        assert [backend.complete(SYSTEM, PARAMS) for _ in range(5)] == ["x"] * 5

    def test_cycle_needs_script(self):
        with pytest.raises(ConfigError):
            ScriptedBackend([], cycle=True)

    def test_determinism(self):
        script = ["a", "b", "c"]
        runs = []
        for _ in range(2):
            backend = ScriptedBackend(script)
            runs.append([backend.complete(SYSTEM, PARAMS) for _ in range(3)])
        assert runs[0] == runs[1]

    def test_empty_completion_is_error(self):
        with pytest.raises(EmptyCompletion):
            ScriptedBackend([""]).complete(SYSTEM, PARAMS)

    def test_no_messages_rejected(self):
        with pytest.raises(ConfigError):
            ScriptedBackend(["x"]).complete([], PARAMS)

    def test_concurrent_calls_consume_total_order(self):
        script = [f"r{i}" for i in range(100)]
        backend = ScriptedBackend(script)
        seen: list[str] = []
        lock = threading.Lock()

        def worker():
            for _ in range(50):
                reply = backend.complete(SYSTEM, PARAMS)
                with lock:
                    seen.append(reply)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(seen) == sorted(script)  # each entry consumed exactly once


# ---------------------------------------------------------------------------
# Wire client against a local capture mock
# ---------------------------------------------------------------------------


class MockServer:
    """Captures request bodies and replays a queue of behaviors.

    Behaviors: ("ok", content), ("status", code), ("raw", body) which
    answers 200 with exactly ``body`` (bytes), ("drop",) which closes the
    connection without a response (transport failure). Assigning
    ``behave`` a function of the request body replaces the queue, which
    concurrent clients would consume in arrival order. Each request is
    answered after ``delay`` seconds; ``max_in_flight`` is the most requests
    the server was handling at once.
    """

    def __init__(self, delay: float = 0.0):
        self.requests: list[dict] = []
        self.headers: list[dict] = []
        self.behaviors: list[tuple] = []
        self.behave = lambda body: self.behaviors.pop(0) if self.behaviors else ("ok", "Hi")
        self.delay = delay
        self.max_in_flight = 0
        self._in_flight = 0
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                outer.requests.append({"path": self.path, "body": body})
                outer.headers.append(dict(self.headers))
                with outer._lock:
                    outer._in_flight += 1
                    outer.max_in_flight = max(outer.max_in_flight, outer._in_flight)
                try:
                    time.sleep(outer.delay)
                    self.answer(outer.behave(body))
                finally:
                    with outer._lock:
                        outer._in_flight -= 1

            def answer(self, behavior):
                if behavior[0] == "drop":
                    # shutdown (not just close) so the client sees the FIN
                    # immediately instead of waiting out its read timeout
                    self.close_connection = True
                    self.connection.shutdown(socket.SHUT_RDWR)
                    return
                if behavior[0] == "raw":  # a 200 response with this exact body
                    self.send_response(200)
                    self.send_header("Content-Length", str(len(behavior[1])))
                    self.end_headers()
                    self.wfile.write(behavior[1])
                    return
                if behavior[0] == "status":
                    payload = b'{"error": "boom"}'
                    self.send_response(behavior[1])
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                    return
                payload = json.dumps(
                    {"choices": [{"message": {"role": "assistant", "content": behavior[1]}}]}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.01}, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def mock():
    server = MockServer()
    yield server
    server.close()


class TestHttpBackend:
    def test_passthrough(self, mock):
        mock.behaviors = [("ok", "Hi")]
        backend = HttpBackend(mock.url, "test-model", api_key="k")
        assert backend.complete(SYSTEM, PARAMS) == "Hi"
        assert mock.requests[0]["path"] == "/v1/chat/completions"

    def test_body_shape_exact(self, mock):
        backend = HttpBackend(mock.url, "test-model", api_key="k")
        backend.complete(SYSTEM, SamplingParams(temperature=0.5, max_tokens=32))
        body = mock.requests[0]["body"]
        assert set(body) == {"model", "messages", "temperature", "max_tokens"}
        assert body["model"] == "test-model"
        assert body["temperature"] == 0.5
        assert body["max_tokens"] == 32
        assert body["messages"] == [{"role": "system", "content": "You are a test."}]

    def test_seed_propagated(self, mock):
        backend = HttpBackend(mock.url, "test-model", api_key="k")
        backend.complete(SYSTEM, SamplingParams(seed=7))
        body = mock.requests[0]["body"]
        assert body["seed"] == 7
        assert set(body) == {"model", "messages", "temperature", "max_tokens", "seed"}

    def test_bearer_header(self, mock):
        HttpBackend(mock.url, "m", api_key="sekrit").complete(SYSTEM, PARAMS)
        assert mock.headers[0]["Authorization"] == "Bearer sekrit"

    def test_api_key_from_env(self, mock, monkeypatch):
        monkeypatch.setenv("DIALOGFORGE_API_KEY", "envkey")
        HttpBackend(mock.url, "m").complete(SYSTEM, PARAMS)
        assert mock.headers[0]["Authorization"] == "Bearer envkey"

    def test_http_500_maps_to_wire_error_without_retry(self, mock):
        mock.behaviors = [("status", 500)]
        backend = HttpBackend(mock.url, "m", api_key="k")
        with pytest.raises(WireError) as excinfo:
            backend.complete(SYSTEM, PARAMS)
        assert excinfo.value.status == 500
        assert len(mock.requests) == 1

    def test_http_4xx_not_retried(self, mock):
        mock.behaviors = [("status", 404)]
        backend = HttpBackend(mock.url, "m", api_key="k")
        with pytest.raises(WireError) as excinfo:
            backend.complete(SYSTEM, PARAMS)
        assert excinfo.value.status == 404
        assert len(mock.requests) == 1

    def test_transport_failure_retried_once(self, mock):
        mock.behaviors = [("drop",), ("ok", "recovered")]
        backend = HttpBackend(mock.url, "m", api_key="k")
        assert backend.complete(SYSTEM, PARAMS) == "recovered"
        assert len(mock.requests) == 2

    def test_two_transport_failures_raise(self, mock):
        mock.behaviors = [("drop",), ("drop",)]
        backend = HttpBackend(mock.url, "m", api_key="k")
        with pytest.raises(WireError) as excinfo:
            backend.complete(SYSTEM, PARAMS)
        assert excinfo.value.status is None
        assert len(mock.requests) == 2

    def test_empty_content_is_error(self, mock):
        mock.behaviors = [("ok", "")]
        backend = HttpBackend(mock.url, "m", api_key="k")
        with pytest.raises(EmptyCompletion):
            backend.complete(SYSTEM, PARAMS)

    @pytest.mark.parametrize("body", [
        b"<html>not json</html>",
        b'{"id": "cmpl-1"}',
        b'{"choices": [{"message": {"role": "assistant", "content": null}}]}',
    ], ids=["not-json", "no-choices", "content-null"])
    def test_malformed_body_is_wire_error(self, mock, body, runner, tmp_path):
        mock.behave = lambda request: ("raw", body)
        with pytest.raises(WireError):
            HttpBackend(mock.url, "m", api_key="k").complete(SYSTEM, PARAMS)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "backend": {"baseUrl": mock.url, "model": "m"},
            "personas": {"Alice": {}, "Bob": {}},
            "outputDir": str(tmp_path / "out"),
        }), encoding="utf-8")
        result = runner.invoke(main, ["generate", "--spec", str(spec)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ")
        assert len(mock.requests) == 2  # one per attempt above, none retried

    def test_bad_url_rejected(self):
        with pytest.raises(ConfigError):
            HttpBackend("not a url", "m")
