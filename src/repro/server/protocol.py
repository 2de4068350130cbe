"""The line-oriented JSON wire protocol of the query server.

One request per line, one reply per line, both JSON objects.  Requests
carry an ``op`` plus op-specific fields and an optional client-chosen
``id`` that the reply echoes back; replies are ``{"ok": true, ...}`` or a
structured error ``{"ok": false, "error": {"code": ..., "message": ...}}``.

The protocol is deliberately small — the testbed analogue of the paper's
User Interface commands (§3.1) lifted onto a socket: ``query``, ``update``,
``define``, ``materialize``, ``lint``, ``stats``, and ``ping``.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

PROTOCOL_VERSION = 1

#: Upper bound on one wire message; longer lines are rejected, not buffered.
MAX_MESSAGE_BYTES = 8 * 1024 * 1024


class ErrorCode:
    """Stable error codes carried in structured error replies."""

    PARSE_ERROR = "PARSE_ERROR"  # the request line is not valid JSON
    BAD_REQUEST = "BAD_REQUEST"  # well-formed JSON, malformed request
    SERVER_BUSY = "SERVER_BUSY"  # admission control shed the request
    TIMEOUT = "TIMEOUT"  # the request exceeded its time budget
    EVALUATION_ERROR = "EVALUATION_ERROR"  # the D/KBMS rejected the operation
    SHUTTING_DOWN = "SHUTTING_DOWN"  # the server is stopping
    INTERNAL = "INTERNAL"  # unexpected server-side failure
    # Cluster codes — both *retryable*: the request was sound but landed on
    # the wrong backend (or one not yet caught up); the structured hints
    # (``retry_after``, ``leader``) tell the caller where/when to retry.
    WRONG_SHARD = "WRONG_SHARD"  # request routed to a non-owning shard
    STALE_REPLICA = "STALE_REPLICA"  # replica behind the caller's version floor
    # The rule base fails the partition-aware lints (DK10x): accepting the
    # define would produce rules no shard can evaluate soundly.
    UNROUTABLE_RULES = "UNROUTABLE_RULES"

    ALL = frozenset(
        {
            PARSE_ERROR,
            BAD_REQUEST,
            SERVER_BUSY,
            TIMEOUT,
            EVALUATION_ERROR,
            SHUTTING_DOWN,
            INTERNAL,
            WRONG_SHARD,
            STALE_REPLICA,
            UNROUTABLE_RULES,
        }
    )

    #: Codes a client may retry (elsewhere, or after ``retry_after``).
    RETRYABLE = frozenset({SERVER_BUSY, TIMEOUT, WRONG_SHARD, STALE_REPLICA})


class ProtocolError(Exception):
    """A request that cannot be served, with its structured error code.

    ``details`` carries optional machine-readable hints beside the message:
    ``retry_after`` (seconds until a retry may succeed), ``leader`` (the
    ``[host, port]`` of the backend that *can* serve the request), and
    code-specific context such as ``version``/``min_version`` for
    ``STALE_REPLICA`` or ``shard`` for ``WRONG_SHARD``.
    """

    def __init__(
        self,
        code: str,
        message: str,
        details: "Mapping[str, Any] | None" = None,
    ) -> None:
        if code not in ErrorCode.ALL:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.details: dict[str, Any] = dict(details) if details else {}


#: op -> (required fields, optional fields); every request may also carry
#: ``id`` (echoed) and ``op`` itself.
REQUEST_FIELDS: dict[str, tuple[frozenset[str], frozenset[str]]] = {
    "ping": (frozenset(), frozenset()),
    "query": (
        frozenset({"q"}),
        frozenset(
            {
                "bindings",
                "strategy",
                "optimize",
                "use_views",
                "use_cache",
                "min_version",
                "shard",
            }
        ),
    ),
    "update": (
        frozenset({"predicate", "action", "rows"}),
        frozenset({"shard", "types"}),
    ),
    "define": (frozenset({"program"}), frozenset({"shard"})),
    "materialize": (frozenset({"predicate"}), frozenset({"shard"})),
    "lint": (frozenset(), frozenset({"q"})),
    "stats": (frozenset(), frozenset()),
}

UPDATE_ACTIONS = frozenset({"insert", "delete"})


def validate_request(message: Any) -> dict[str, Any]:
    """Check shape and field types of one decoded request.

    Returns the message unchanged (for chaining).

    Raises:
        ProtocolError: ``BAD_REQUEST`` describing the first problem found.
    """
    if not isinstance(message, dict):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, "request must be a JSON object"
        )
    op = message.get("op")
    if not isinstance(op, str) or op not in REQUEST_FIELDS:
        known = ", ".join(sorted(REQUEST_FIELDS))
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, f"unknown op {op!r}; expected one of: {known}"
        )
    required, optional = REQUEST_FIELDS[op]
    allowed = required | optional | {"op", "id"}
    for name in sorted(required - message.keys()):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, f"op {op!r} requires field {name!r}"
        )
    for name in sorted(message.keys() - allowed):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, f"op {op!r} does not accept field {name!r}"
        )
    if "q" in message and not isinstance(message["q"], str):
        raise ProtocolError(ErrorCode.BAD_REQUEST, "field 'q' must be a string")
    if "program" in message and not isinstance(message["program"], str):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, "field 'program' must be a string"
        )
    if "predicate" in message and not isinstance(message["predicate"], str):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, "field 'predicate' must be a string"
        )
    if "bindings" in message and not isinstance(message["bindings"], dict):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, "field 'bindings' must be an object"
        )
    # The library's rule (``repro.km.policy.check_optimize``), restated so
    # the wire layer imports nothing of the Knowledge Manager.
    if "optimize" in message and not (
        isinstance(message["optimize"], bool) or message["optimize"] == "auto"
    ):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST,
            "field 'optimize' must be true, false or \"auto\"",
        )
    for name in ("use_views", "use_cache"):
        if name in message and not isinstance(message[name], bool):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, f"field {name!r} must be a boolean"
            )
    for name in ("min_version", "shard"):
        if name in message and (
            isinstance(message[name], bool)
            or not isinstance(message[name], int)
            or message[name] < 0
        ):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"field {name!r} must be a non-negative integer",
            )
    if op == "update":
        action = message["action"]
        if action not in UPDATE_ACTIONS:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"update action must be 'insert' or 'delete', got {action!r}",
            )
        rows = message["rows"]
        if not isinstance(rows, list) or not all(
            isinstance(row, (list, tuple)) for row in rows
        ):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, "field 'rows' must be a list of rows"
            )
        types = message.get("types")
        if types is not None and (
            not isinstance(types, list)
            or not all(isinstance(name, str) for name in types)
        ):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                "field 'types' must be a list of type-name strings",
            )
    return message


def encode_message(message: Mapping[str, Any]) -> bytes:
    """One wire line for ``message`` (newline-terminated UTF-8 JSON)."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> dict[str, Any]:
    """Decode one received line into a message.

    Raises:
        ProtocolError: ``PARSE_ERROR`` on oversized or malformed input.
    """
    if len(line) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            ErrorCode.PARSE_ERROR,
            f"message exceeds {MAX_MESSAGE_BYTES} bytes",
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(
            ErrorCode.PARSE_ERROR, f"invalid JSON: {error}"
        ) from error
    if not isinstance(message, dict):
        raise ProtocolError(
            ErrorCode.PARSE_ERROR, "request must be a JSON object"
        )
    return message


def ok_reply(request_id: Any, **fields: Any) -> dict[str, Any]:
    """A success reply echoing the request id."""
    reply: dict[str, Any] = {"ok": True, "id": request_id}
    reply.update(fields)
    return reply


def error_reply(
    request_id: Any,
    code: str,
    message: str,
    details: "Mapping[str, Any] | None" = None,
) -> dict[str, Any]:
    """A structured error reply echoing the request id.

    ``details`` (when non-empty) rides inside the error object — the
    retryable cluster codes use it for ``retry_after``/``leader`` hints.
    """
    error: dict[str, Any] = {"code": code, "message": message}
    if details:
        error["details"] = dict(details)
    return {"ok": False, "id": request_id, "error": error}
