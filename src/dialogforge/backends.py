"""Completion backends: one contract, a scripted test double, an HTTP client.

The wire client targets OpenAI-compatible chat-completion endpoints
(``POST {base_url}/chat/completions``). Reproducibility of remote models
via the ``seed`` field is best-effort: the seed is forwarded when set,
but whether the server honors it depends on the serving stack.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    BackendExhausted,
    ConfigError,
    EmptyCompletion,
    InvariantViolation,
    WireError,
)

# HttpBackend._complete imports requests, so only wire runs load it
if TYPE_CHECKING:
    import requests

API_KEY_ENV = "DIALOGFORGE_API_KEY"
BASE_URL_ENV = "DIALOGFORGE_BASE_URL"

DEFAULT_TIMEOUT = 120.0


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
        if self.temperature < 0:
            raise ConfigError("temperature must be non-negative")
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
    variable. Transport failures are retried exactly once; HTTP error
    statuses are not retried.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        if not base_url or "://" not in base_url:
            raise ConfigError(f"base_url must be an absolute URL, got {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.timeout = timeout

    def _complete(self, messages: list[Message], params: SamplingParams) -> str:
        import requests

        url = f"{self.base_url}/chat/completions"
        body: dict = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }
        if params.seed is not None:
            body["seed"] = params.seed
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        for attempt in range(2):
            try:
                response = requests.post(url, json=body, headers=headers, timeout=self.timeout)
            except requests.RequestException as exc:  # Timeout is a subclass
                if attempt == 1:
                    raise WireError(f"transport failure talking to {url}: {exc}") from exc
                continue
            return self._parse_response(response)

    def _parse_response(self, response: requests.Response) -> str:
        if response.status_code != 200:
            excerpt = response.text[:200]
            raise WireError(
                f"HTTP {response.status_code} from backend: {excerpt}",
                status=response.status_code,
            )
        try:
            data = response.json()
            content = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise WireError(f"malformed completion response: {response.text[:200]}") from exc
        if not isinstance(content, str):
            raise WireError("completion content is not a string")
        return content
