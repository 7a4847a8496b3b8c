"""Deterministic OpenAI-compatible chat-completions mock for the benchmark.

Every reply is a pure function of the request body (never of arrival
order), so batch outputs stay byte-identical however many clients run at
once. The server adds a fixed delay per request and records, per request,
its arrival, handling time, connection and body size, plus the number of
requests in flight; the records feed the ``mock.*`` per-layer metrics.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# The mock "obeys" a wrap-up instruction by ending its reply with the end
# marker; this matches the text dialogforge's LengthOrchestrator injects.
WRAP_UP_PREFIX = "Wrap up the conversation now"
END_MARKER = "[END]"


@dataclass(frozen=True)
class RequestRecord:
    accepted: float  # connection accepted by the server (perf_counter seconds)
    arrival: float  # request line read by the handler
    sent: float  # reply fully written
    connection: int
    body_bytes: int
    status: int
    inflight: int  # requests in flight when this one arrived, itself included


def reply_for(body: bytes, vocab: tuple[str, ...], salt: bytes = b"") -> str:
    """The mock's completion for one request body: a pure function of it."""
    digest = hashlib.sha256(salt + body).digest()
    words = [
        vocab[int.from_bytes(digest[2 + 2 * i : 4 + 2 * i], "big") % len(vocab)]
        for i in range(5 + digest[0] % 9)
    ]
    text = " ".join(words).capitalize() + "."
    messages = json.loads(body)["messages"]
    if any(m["role"] == "system" and m["content"].startswith(WRAP_UP_PREFIX) for m in messages[1:]):
        text += " " + END_MARKER
    return text


class MockServer:
    """A chat-completions endpoint at ``url`` on a ThreadingHTTPServer.

    ``salt`` perturbs every reply; it exists so the benchmark's self-test
    can prove that a changed reply is caught by the golden digests.
    """

    def __init__(self, vocab: tuple[str, ...], delay_s: float, salt: bytes = b""):
        self.vocab = vocab
        self.delay_s = delay_s
        self.salt = salt
        self.records: list[RequestRecord] = []
        self._lock = threading.Lock()
        self._inflight = 0
        self._connections = itertools.count()
        self._accepted: dict[int, float] = {}
        self._server = _Server(("127.0.0.1", 0), _handler_for(self), self)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1"

    def start(self) -> "MockServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()  # joins the handler threads
        self._thread.join()

    def __enter__(self) -> "MockServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def take_records(self) -> list[RequestRecord]:
        """Return and clear the records collected so far."""
        with self._lock:
            records, self.records = self.records, []
        return records

    def _begin(self) -> int:
        with self._lock:
            self._inflight += 1
            return self._inflight

    def _end(self, record: RequestRecord) -> None:
        with self._lock:
            self._inflight -= 1
            self.records.append(record)


class _Server(ThreadingHTTPServer):
    daemon_threads = False
    block_on_close = True

    def __init__(self, address, handler, mock: MockServer):
        self.mock = mock
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        self.mock._accepted[id(request)] = time.perf_counter()
        super().process_request(request, client_address)


def _handler_for(mock: MockServer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # lets a client keep its connection open
        timeout = 5  # an idle kept-alive connection is closed after this

        def setup(self):
            super().setup()
            self.connection_id = next(mock._connections)
            self.accepted: float | None = mock._accepted.pop(id(self.request), None)

        def log_message(self, format, *args):
            pass

        def do_POST(self):
            arrival = time.perf_counter()
            inflight = mock._begin()
            status, payload = 200, b""
            try:
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                if self.path != "/v1/chat/completions":
                    status = 404
                else:
                    try:
                        text = reply_for(body, mock.vocab, mock.salt)
                    except (ValueError, KeyError, TypeError):
                        status = 400
                    else:
                        payload = json.dumps(
                            {"choices": [{"index": 0, "message": {"role": "assistant", "content": text}}]}
                        ).encode()
                time.sleep(mock.delay_s)
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)
            finally:
                mock._end(
                    RequestRecord(
                        accepted=arrival if self.accepted is None else self.accepted,
                        arrival=arrival,
                        sent=time.perf_counter(),
                        connection=self.connection_id,
                        body_bytes=int(self.headers.get("Content-Length", 0)),
                        status=status,
                        inflight=inflight,
                    )
                )
                self.accepted = None  # a kept-alive request waits on no accept

    return Handler
