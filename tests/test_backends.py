"""Tests for the backend contract, the scripted double, and the wire client."""

from __future__ import annotations

import http.client
import json
import os
import re
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

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
    def test_non_finite_temperature_rejected(self, temperature):
        with pytest.raises(ConfigError):
            SamplingParams(temperature=temperature)

    @pytest.mark.parametrize("max_tokens", [0, -1])
    def test_non_positive_max_tokens_rejected(self, max_tokens):
        with pytest.raises(ConfigError, match="max_tokens must be positive"):
            SamplingParams(max_tokens=max_tokens)


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
    connection without a response (transport failure), ("close", content)
    which answers like "ok" with ``Connection: close``, and ("stale",
    content) which answers like "ok" and then closes the connection without
    saying so, as a server closing an idle connection does. Assigning ``behave`` a
    function of the request body replaces the queue, which concurrent
    clients would consume in arrival order. Each request is answered after
    ``delay`` seconds; ``max_in_flight`` is the most requests the server
    was handling at once. Each entry of ``requests`` records the request's
    path, body and client port, which names its connection.
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
                outer.requests.append({"path": self.path, "body": body,
                                       "port": self.client_address[1]})
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
                    self.hang_up()
                    return
                if behavior[0] == "stale":  # an "ok" answer on a connection closed after it
                    self.answer(("ok", behavior[1]))
                    self.hang_up()
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
                if behavior[0] == "close":
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(payload)

            def hang_up(self):
                # shutdown (not just close) so the client sees the FIN
                # immediately instead of waiting out its read timeout
                self.close_connection = True
                self.connection.shutdown(socket.SHUT_RDWR)

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

    def test_bad_url_rejected(self, proxy_env):
        with pytest.raises(ConfigError):
            HttpBackend("not a url", "m")
        # a query or fragment would end the path before /chat/completions
        for url in ("http://h:8000/v1?api-version=2024", "http://h:8000/v1#frag",
                    "http://h:8000/v1?"):
            with pytest.raises(ConfigError, match=re.escape(f"{url!r} has a query or fragment")):
                HttpBackend(url, "m")
        # a proxy's query or fragment would be dropped
        for proxy in ("http://127.0.0.1:9/?x#y", "http://127.0.0.1:9/#y", "127.0.0.1:9/?x"):
            proxy_env.setenv("http_proxy", proxy)
            with pytest.raises(ConfigError,
                               match=re.escape(f"proxy {proxy!r} has a query or fragment")):
                HttpBackend("http://example.invalid/v1", "m")

    def test_read_timeout_retried_once(self, mock):
        mock.delay = 1.0
        # the late answers go to sockets the client has closed
        mock.server.handle_error = lambda request, client_address: None
        with pytest.raises(WireError) as excinfo:
            HttpBackend(mock.url, "m", api_key="k", timeout=0.2).complete(SYSTEM, PARAMS)
        assert excinfo.value.status is None
        assert str(excinfo.value).startswith("transport failure talking to ")
        assert len(mock.requests) == 2

    @pytest.mark.parametrize("body", [
        b"[1, 2]",
        b'{"choices": []}',
        b'{"choices": [{"message": "Hi"}]}',
        b'{"choices": [{"message": {"content": 7}}]}',
        b"\xff\xfe not utf-8",
        b'{"choices": [{"message": {"content": "half \\ud800"}}]}',
        b'{"choices": [{"message": {"content": "half \xed\xa0\x80"}}]}',
    ], ids=["list", "no-choice", "message-not-object", "content-not-string", "not-utf-8",
            "lone-surrogate-escape", "surrogate-as-utf-8-bytes"])
    def test_malformed_reply_message(self, mock, body):
        mock.behave = lambda request: ("raw", body)
        with pytest.raises(WireError) as excinfo:
            HttpBackend(mock.url, "m", api_key="k").complete(SYSTEM, PARAMS)
        assert str(excinfo.value).startswith("malformed completion response: ")
        assert excinfo.value.status is None
        assert len(mock.requests) == 1

    @pytest.mark.parametrize("url", ["ftp://127.0.0.1/v1", "http:///v1", "http://127.0.0.1:x/v1"],
                             ids=["scheme", "no-host", "port"])
    def test_unusable_url_rejected(self, url):
        with pytest.raises(ConfigError):
            HttpBackend(url, "m")

    @pytest.mark.parametrize("key", ["sk-SECRET\n", "sk-SECRET\r\n", "sk-\rSECRET", "sk-\x00SECRET",
                                     "sk-\tSECRET", "sk-SECRET\x7f", "sk-\x85SECRET",
                                     "sk-SECRET\u20ac", "sk-SECRET\U0001f511"],
                             ids=["lf", "crlf", "cr", "nul", "tab", "del", "c1", "euro", "astral"])
    def test_unsendable_api_key_rejected_without_echo(self, key):
        with pytest.raises(ConfigError) as excinfo:
            HttpBackend("http://127.0.0.1:9/v1", "m", api_key=key)
        assert "SECRET" not in str(excinfo.value)

    def test_api_key_from_env_with_trailing_newline_rejected(self, monkeypatch):
        monkeypatch.setenv("DIALOGFORGE_API_KEY", "sk-SECRET\n")
        with pytest.raises(ConfigError) as excinfo:
            HttpBackend("http://127.0.0.1:9/v1", "m")
        assert "SECRET" not in str(excinfo.value)

    def test_latin_1_api_key_sent(self, mock):
        HttpBackend(mock.url, "m", api_key="sk-\xe9t\xe9 key").complete(SYSTEM, PARAMS)
        assert mock.headers[0]["Authorization"] == "Bearer sk-\xe9t\xe9 key"

    @pytest.mark.parametrize("timeout", [True, False, 0, 0.0, -1, float("nan"), float("inf"), "5"],
                             ids=["true", "false", "zero", "zero-float", "negative", "nan", "inf",
                                  "string"])
    def test_unusable_timeout_rejected(self, timeout):
        with pytest.raises(ConfigError, match="timeout must be"):
            HttpBackend("http://127.0.0.1:9/v1", "m", timeout=timeout)

    def test_no_timeout_accepted(self, mock):
        assert HttpBackend(mock.url, "m", api_key="k", timeout=None).complete(SYSTEM, PARAMS) == "Hi"


def ports(server: MockServer) -> list[int]:
    """The client port of each request the server saw, in arrival order."""
    return [request["port"] for request in server.requests]


class TestConnectionReuse:
    def test_one_thread_sends_on_one_connection(self, mock):
        backend = HttpBackend(mock.url, "m", api_key="k")
        assert [backend.complete(SYSTEM, PARAMS) for _ in range(5)] == ["Hi"] * 5
        assert len(ports(mock)) == 5 and len(set(ports(mock))) == 1
        assert "Connection" not in mock.headers[0]

    def test_threads_sharing_a_backend_use_a_connection_each(self, mock):
        mock.behave = lambda body: ("ok", f"re: {body['messages'][-1]['content']}")
        backend = HttpBackend(mock.url, "m", api_key="k")
        barrier = threading.Barrier(2)
        replies: dict[str, list[str]] = {}

        def worker(name):
            barrier.wait()  # both threads hold a connection while the other sends
            replies[name] = [backend.complete([Message("user", f"{name}{i}")], PARAMS)
                             for i in range(5)]

        threads = [threading.Thread(target=worker, args=(name,)) for name in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert replies == {name: [f"re: {name}{i}" for i in range(5)] for name in "ab"}
        senders: dict[int, set[str]] = {}
        for request in mock.requests:
            senders.setdefault(request["port"], set()).add(
                request["body"]["messages"][-1]["content"][0])
        assert sorted(senders.values(), key=sorted) == [{"a"}, {"b"}]

    def test_completions_without_quick_ack(self, mock, monkeypatch):
        monkeypatch.delattr(socket, "TCP_QUICKACK", raising=False)
        backend = HttpBackend(mock.url, "m", api_key="k")
        assert [backend.complete(SYSTEM, PARAMS) for _ in range(3)] == ["Hi"] * 3
        assert len(set(ports(mock))) == 1

    def test_stale_connection_uses_up_the_retry(self, mock):
        mock.behaviors = [("stale", "one"), ("ok", "two"), ("stale", "three"), ("drop",)]
        backend = HttpBackend(mock.url, "m", api_key="k")
        assert backend.complete(SYSTEM, PARAMS) == "one"
        # the request on the closed connection fails without reaching the server
        assert backend.complete(SYSTEM, PARAMS) == "two"
        assert backend.complete(SYSTEM, PARAMS) == "three"
        with pytest.raises(WireError, match="^transport failure talking to "):
            backend.complete(SYSTEM, PARAMS)
        assert len(mock.requests) == 4
        assert len(set(ports(mock))) == 3

    def test_connection_closed_by_reply_is_not_reused(self, mock):
        mock.behaviors = [("close", "one"), ("drop",), ("ok", "two"), ("ok", "three")]
        backend = HttpBackend(mock.url, "m", api_key="k")
        assert backend.complete(SYSTEM, PARAMS) == "one"
        assert backend.complete(SYSTEM, PARAMS) == "two"  # a drop on a new connection, retried
        assert backend.complete(SYSTEM, PARAMS) == "three"
        first, dropped, second, third = ports(mock)
        assert len({first, dropped, second}) == 3 and third == second

    def test_interrupt_propagates_without_retry_and_drops_the_connection(self, mock, monkeypatch):
        request, getresponse = http.client.HTTPConnection.request, http.client.HTTPConnection.getresponse
        attempts: list[int | None] = []  # each send's client port, None if it failed

        def counted(connection, *args, **kwargs):
            attempts.append(None)
            request(connection, *args, **kwargs)
            attempts[-1] = connection.sock.getsockname()[1]

        def interrupted_once(connection):
            if len(attempts) == 1:
                raise KeyboardInterrupt
            return getresponse(connection)

        monkeypatch.setattr(http.client.HTTPConnection, "request", counted)
        monkeypatch.setattr(http.client.HTTPConnection, "getresponse", interrupted_once)
        backend = HttpBackend(mock.url, "m", api_key="k")
        with pytest.raises(KeyboardInterrupt):
            backend.complete(SYSTEM, PARAMS)
        assert len(attempts) == 1
        # a connection left mid-exchange would refuse the next send and use up its retry
        assert backend.complete(SYSTEM, PARAMS) == "Hi"
        assert len(attempts) == 2 and None not in attempts
        # the interrupted request may reach the server after this one
        assert attempts[0] != attempts[1] and attempts[1] in ports(mock)

    def test_close_releases_the_connection(self, mock):
        backend = HttpBackend(mock.url, "m", api_key="k")
        backend.complete(SYSTEM, PARAMS)
        backend.close()
        backend.close()
        assert backend.complete(SYSTEM, PARAMS) == "Hi"
        assert len(set(ports(mock))) == 2


@pytest.fixture
def proxy_env(monkeypatch):
    """The environment without any proxy setting; set them through the monkeypatch."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    return monkeypatch


class TestProxies:
    def test_http_proxy_gets_absolute_url(self, mock, proxy_env):
        proxy_env.setenv("http_proxy", mock.url.removesuffix("/v1"))
        assert HttpBackend(mock.url, "m", api_key="k").complete(SYSTEM, PARAMS) == "Hi"
        assert mock.requests[0]["path"] == f"{mock.url}/chat/completions"

    def test_no_proxy_bypasses_proxy(self, mock, proxy_env):
        proxy_env.setenv("http_proxy", mock.url.removesuffix("/v1"))
        proxy_env.setenv("no_proxy", "127.0.0.1")
        assert HttpBackend(mock.url, "m", api_key="k").complete(SYSTEM, PARAMS) == "Hi"
        assert mock.requests[0]["path"] == "/v1/chat/completions"

    def test_https_goes_through_connect_tunnel(self, mock, proxy_env):
        proxy_env.setenv("https_proxy", mock.url.removesuffix("/v1"))
        backend = HttpBackend(mock.url.replace("http://", "https://"), "m", api_key="k")
        with pytest.raises(WireError) as excinfo:
            backend.complete(SYSTEM, PARAMS)
        # the mock answers the CONNECT of each attempt with 501 and sees no POST
        assert "Tunnel connection failed: 501" in str(excinfo.value)
        assert excinfo.value.status is None
        assert mock.requests == []

    def test_non_http_proxy_rejected(self, mock, proxy_env):
        proxy_env.setenv("http_proxy", "socks5://127.0.0.1:1080")
        with pytest.raises(ConfigError):
            HttpBackend(mock.url, "m")
