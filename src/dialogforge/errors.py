"""Exception hierarchy shared by all dialogforge modules."""

from __future__ import annotations


class DialogForgeError(Exception):
    """Base class for every error raised by this package."""


class InvariantViolation(DialogForgeError):
    """A domain object was constructed or mutated into an invalid state."""


class EmptySpeaker(InvariantViolation):
    """Speaker label is empty after whitespace trimming."""


class UnserializableSpeaker(DialogForgeError):
    """Speaker label cannot be represented in the plain text format."""


class ParseError(DialogForgeError):
    """A structured dialog document could not be parsed."""


class BadTurnLine(ParseError):
    """A plain-format line lacks the 'Speaker: text' separator."""


class ConfigError(DialogForgeError):
    """Invalid configuration value (orchestrator params, run spec, etc.)."""


class DuplicateAgentName(DialogForgeError):
    """Two conversing agents share the same name."""


class BackendError(DialogForgeError):
    """Base class for completion-backend failures."""


class BackendExhausted(BackendError):
    """A scripted backend ran out of responses."""


class EmptyCompletion(BackendError):
    """The backend returned an empty completion."""


class WireError(BackendError):
    """Transport or HTTP-level failure talking to a remote backend.

    ``status`` is the HTTP status code, or None for transport failures
    (connection refused, timeout, aborted connection).
    """

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class SchemaViolation(BackendError):
    """A model completion did not conform to the requested output schema.

    Carries the raw completion text for debugging.
    """

    def __init__(self, message: str, raw: str = ""):
        super().__init__(message)
        self.raw = raw


class NotFound(DialogForgeError):
    """A dataset item (dialogue, scenario, flowchart) does not exist; the message names it."""


class NotADirectory(DialogForgeError):
    """The dataset root path does not point at a readable directory."""
