"""Completion backends: one contract, a scripted test double, an HTTP client.

The wire client targets OpenAI-compatible chat-completion endpoints
(``POST {base_url}/chat/completions``). Reproducibility of remote models
via the ``seed`` field is best-effort: the seed is forwarded when set,
but whether the server honors it depends on the serving stack.
"""

from __future__ import annotations

import functools
import json
import os
import re
import threading
import urllib.parse
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .dialog import _loads, _require
from .errors import (
    BackendExhausted,
    ConfigError,
    EmptyCompletion,
    InvariantViolation,
    WireError,
)

# HttpBackend imports http.client, socket, urllib.request and ssl when built or
# used, so only wire runs load them
if TYPE_CHECKING:
    import http.client
    import ssl

API_KEY_ENV = "DIALOGFORGE_API_KEY"
BASE_URL_ENV = "DIALOGFORGE_BASE_URL"

DEFAULT_TIMEOUT = 120.0
# what http.client could not send in a header value, or would send garbled: C0 and C1
# controls, DEL, and anything past Latin-1
_UNSENDABLE = re.compile(r"[^\x20-\x7e\xa0-\xff]")


@dataclass(frozen=True)
class Message:
    """One prompt-memory entry. Content may be empty only for system messages."""

    role: str
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise InvariantViolation(f"unknown message role {self.role!r}")
        if self.role != "system" and not self.content:
            raise InvariantViolation(f"{self.role} message content must be non-empty")


@dataclass(frozen=True)
class SamplingParams:
    """Sampling controls forwarded to the backend on every completion."""

    seed: int | None = None
    temperature: float = 1.0
    max_tokens: int = 512

    def __post_init__(self):
        if not 0 <= self.temperature < float("inf"):  # NaN fails too; JSON has neither
            raise ConfigError("temperature must be a non-negative finite number")
        if self.max_tokens <= 0:
            raise ConfigError("max_tokens must be positive")


class Backend:
    """Contract for text-completion backends.

    Subclasses implement ``_complete``; the public ``complete`` enforces
    the shared guarantees (messages present, completion non-empty).
    A backend handle may be shared across threads.
    """

    model: str = "unknown"

    def complete(self, messages: list[Message], params: SamplingParams) -> str:
        if not messages:
            raise ConfigError("complete() requires at least one message")
        reply = self._complete(messages, params)
        if not reply:
            raise EmptyCompletion(f"backend {self.model!r} returned an empty completion")
        return reply

    def _complete(self, messages: list[Message], params: SamplingParams) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the calling thread holds open; the backend stays usable."""


class ScriptedBackend(Backend):
    """Deterministic backend that replays a fixed list of responses.

    With ``cycle=True`` the script wraps around instead of exhausting.
    The cursor is lock-protected so concurrent calls consume the script
    in a total order.
    """

    model = "scripted"

    def __init__(self, script: list[str], cycle: bool = False):
        if cycle and not script:
            raise ConfigError("cycling scripted backend needs a non-empty script")
        self._script = list(script)
        self._cycle = cycle
        self._cursor = 0
        self._lock = threading.Lock()

    def _complete(self, messages: list[Message], params: SamplingParams) -> str:
        with self._lock:
            if self._cursor >= len(self._script):
                if not self._cycle:
                    raise BackendExhausted(
                        f"scripted backend exhausted after {len(self._script)} responses"
                    )
                self._cursor = 0
            reply = self._script[self._cursor]
            self._cursor += 1
        return reply


class HttpBackend(Backend):
    """Wire client for OpenAI-compatible chat-completion endpoints.

    The request body always contains exactly {model, messages, temperature,
    max_tokens}, plus {seed} when set. The API key travels as a bearer
    credential and falls back to the DIALOGFORGE_API_KEY environment
    variable. A key that cannot be sent as a header value (a control
    character, a trailing newline included, or a character outside
    Latin-1), or a timeout that is neither None nor a positive finite
    number of seconds, is a ConfigError when the backend is built.

    Each thread keeps one HTTP/1.1 connection per backend open and sends
    its completions over it. The connection is closed after a transport
    failure and after a reply that says it will close; the thread's next
    attempt opens a new one. Transport failures, timeouts included, are
    retried exactly once, on a new connection; HTTP error statuses are not
    retried. A failure on a reused connection is that one retry: a server
    that closed the idle connection reads like one that dropped the
    request. After each request is sent, the socket acknowledges at once
    (``TCP_QUICKACK``, where the platform has it): a server that writes the
    headers and the body in two sends with Nagle's algorithm on would
    otherwise hold the body back until the client's delayed ACK. The proxy
    environment (``http_proxy``, ``https_proxy``, ``all_proxy``,
    ``no_proxy``) is read once, when the backend is built.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        timeout: float | None = DEFAULT_TIMEOUT,
    ):
        import http.client
        import urllib.request

        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.timeout = timeout
        if timeout is not None and (isinstance(timeout, bool) or not isinstance(
                timeout, (int, float)) or not 0 < timeout < float("inf")):  # NaN fails too
            raise ConfigError(f"timeout must be None or a positive finite number of seconds, "
                              f"got {timeout!r}")
        self._url = f"{self.base_url}/chat/completions"
        target = _split_url(self._url, ("http", "https"), f"base_url {base_url!r}")
        if target.query or target.fragment:  # the path would not end in /chat/completions
            raise ConfigError(f"base_url {base_url!r} has a query or fragment")
        https = target.scheme == "https"

        self._headers = {"Content-Type": "application/json"}
        if self.api_key:
            if _UNSENDABLE.search(self.api_key):  # the message must not echo the key
                raise ConfigError("the API key cannot be sent as a header value: it holds a "
                                  "control character, such as a trailing newline, or a "
                                  "character outside Latin-1")
            self._headers["Authorization"] = f"Bearer {self.api_key}"
        self._target = target.path
        self._tunnel = None
        address = target.hostname, target.port
        proxies = urllib.request.getproxies()
        proxy = proxies.get(target.scheme) or proxies.get("all")
        if proxy and not urllib.request.proxy_bypass(target.netloc):
            via = _split_url(proxy if "://" in proxy else f"http://{proxy}", ("http",),
                             f"proxy {proxy!r}")
            if via.query or via.fragment:  # only the host and port would be used
                raise ConfigError(f"proxy {proxy!r} has a query or fragment")
            address = via.hostname, via.port or 80
            if https:  # a CONNECT tunnel through the proxy, then TLS to the endpoint
                self._tunnel = target.hostname, target.port
            else:  # the proxy takes the absolute URL
                self._target = self._url
        connection = http.client.HTTPSConnection if https else http.client.HTTPConnection
        tls = {"context": _tls_context()} if https else {}
        self._connect = functools.partial(connection, *address, timeout=timeout, **tls)
        self._local = threading.local()  # .connection: the calling thread's connection

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection, made on its first completion.

        ``http.client`` reconnects a closed connection when it next sends,
        through the tunnel again if there is one.
        """
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._connect()
            if self._tunnel:
                connection.set_tunnel(*self._tunnel)
        return connection

    def close(self) -> None:
        """Close the calling thread's connection; its next completion connects anew."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()

    def _complete(self, messages: list[Message], params: SamplingParams) -> str:
        import http.client
        import socket

        body: dict = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }
        if params.seed is not None:
            body["seed"] = params.seed
        payload = json.dumps(body).encode()

        connection = self._connection()
        for attempt in range(2):
            try:
                connection.request("POST", self._target, payload, self._headers)
                if hasattr(socket, "TCP_QUICKACK"):  # ACK the reply's headers at once
                    connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
                response = connection.getresponse()
                status, data = response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:  # timeouts are OSErrors
                connection.close()  # the next attempt connects anew
                if attempt == 1:
                    raise WireError(f"transport failure talking to {self._url}: {exc}") from exc
                continue
            except BaseException:  # an interrupt leaves the exchange half done
                connection.close()
                raise
            return _read_reply(status, data)


def _split_url(url: str, schemes: tuple[str, ...], what: str) -> urllib.parse.SplitResult:
    """``url`` split into its parts; one without a host or a scheme in ``schemes`` raises."""
    parts = urllib.parse.urlsplit(url)
    try:
        parts.port  # a port that is not a number raises here
    except ValueError as exc:
        raise ConfigError(f"{what} has an invalid port") from exc
    if parts.scheme not in schemes or not parts.hostname:
        raise ConfigError(f"{what} is not an absolute {' or '.join(schemes)} URL")
    return parts


@functools.cache
def _tls_context() -> ssl.SSLContext:
    """One context for every https connection: the system trust store, host names checked."""
    import ssl

    return ssl.create_default_context()


def _read_reply(status: int, data: bytes) -> str:
    """The completion text of a reply with this status and body."""
    excerpt = data[:200].decode("utf-8", "replace")
    if status != 200:
        raise WireError(f"HTTP {status} from backend: {excerpt}", status=status)
    try:
        reply = _loads(data.decode("utf-8"))
    except ValueError:  # JSON and UTF-8 errors
        reply = None
    where = f"malformed completion response: {excerpt}"
    if not isinstance(reply, dict):
        raise WireError(where)
    choices = _require(reply, "choices", list[dict], where, WireError)
    message = _require(choices[0] if choices else {}, "message", dict, where, WireError)
    return _require(message, "content", str, where, WireError)
