"""A blocking client for the query server's wire protocol."""

from __future__ import annotations

import itertools
import socket
from typing import Any, Optional

from .protocol import (
    MAX_MESSAGE_BYTES,
    ErrorCode,
    ProtocolError,
    decode_line,
    encode_message,
)


class ServerError(Exception):
    """A structured error reply from the server.

    ``details`` carries the machine-readable hints of the error object
    (empty for most codes); the retryable cluster codes are raised as the
    typed subclasses below so callers can catch them specifically.
    """

    def __init__(
        self,
        code: str,
        message: str,
        details: Optional[dict[str, Any]] = None,
    ) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.details: dict[str, Any] = dict(details) if details else {}

    @property
    def retry_after(self) -> Optional[float]:
        """Seconds after which a retry may succeed (``None`` = no hint)."""
        value = self.details.get("retry_after")
        return float(value) if value is not None else None

    @property
    def leader(self) -> Optional[tuple[str, int]]:
        """``(host, port)`` of the backend that can serve this request."""
        value = self.details.get("leader")
        if not value:
            return None
        host, port = value
        return str(host), int(port)


class WrongShardError(ServerError):
    """The request reached a shard that does not own its key.

    Retryable: re-route using ``leader`` (when hinted) or a refreshed
    partition map.  ``details['shard']`` is the replying shard's id.
    """


class StaleReplicaError(ServerError):
    """A replica read could not satisfy the request's version floor.

    Retryable: wait ``retry_after`` seconds for replication to catch up, or
    go straight to the shard primary named by ``leader``.
    ``details['version']`` is the replica's watermark,
    ``details['min_version']`` the floor that failed.
    """


#: error code -> exception class raised by :meth:`DkbClient.request`.
_TYPED_ERRORS: dict[str, type[ServerError]] = {
    ErrorCode.WRONG_SHARD: WrongShardError,
    ErrorCode.STALE_REPLICA: StaleReplicaError,
}


class DkbClient:
    """One connection to a :class:`~repro.server.service.DkbServer`.

    Sends one request line, blocks for the one reply line.  Success replies
    come back as plain dicts; error replies raise :class:`ServerError`
    carrying the structured code.  Usable as a context manager.
    """

    def __init__(self, host: str, port: int, timeout: float | None = 30.0) -> None:
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._file = self._socket.makefile("rwb")
        self._ids = itertools.count(1)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "DkbClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the wire ----------------------------------------------------------

    def request(self, op: str, **payload: Any) -> dict[str, Any]:
        """Send one request and return the success reply.

        Raises:
            ServerError: the server replied with a structured error.
            ConnectionError: the server closed the connection.
            ProtocolError: the reply was truncated (no line terminator) —
                an oversized or partial frame, never valid JSON to parse —
                or answers another request (its ``id`` is not this one's).
        """
        message = {"op": op, "id": next(self._ids)}
        message.update({k: v for k, v in payload.items() if v is not None})
        self._file.write(encode_message(message))
        self._file.flush()
        line = self._file.readline(MAX_MESSAGE_BYTES + 2)
        if not line:
            raise ConnectionError("server closed the connection")
        if not line.endswith(b"\n"):
            # readline returned because it hit the byte cap or the peer
            # closed mid-line — either way this is a partial frame, not a
            # complete reply, and must not be handed to the decoder as one.
            raise ProtocolError(
                ErrorCode.PARSE_ERROR,
                f"reply truncated after {len(line)} bytes with no line "
                "terminator (oversized or partial frame)",
            )
        reply = decode_line(line)
        echoed = reply.get("id")
        # An error the server could not tie to a request (a connection it
        # refused at admission, a line it could not parse) carries no id.
        if echoed != message["id"] and not (echoed is None and not reply.get("ok")):
            raise ProtocolError(
                ErrorCode.PARSE_ERROR,
                f"reply id {echoed!r} does not answer request id {message['id']!r}",
            )
        if not reply.get("ok"):
            error = reply.get("error") or {}
            code = error.get("code", "INTERNAL")
            raise _TYPED_ERRORS.get(code, ServerError)(
                code, error.get("message", ""), error.get("details")
            )
        return reply

    # -- op helpers --------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        return self.request("ping")

    def query(
        self,
        q: str,
        bindings: Optional[dict[str, Any]] = None,
        strategy: Optional[str] = None,
        optimize: "bool | str | None" = None,
        use_views: Optional[bool] = None,
        use_cache: Optional[bool] = None,
        min_version: Optional[int] = None,
        shard: Optional[int] = None,
    ) -> dict[str, Any]:
        return self.request(
            "query",
            q=q,
            bindings=bindings,
            strategy=strategy,
            optimize=optimize,
            use_views=use_views,
            use_cache=use_cache,
            min_version=min_version,
            shard=shard,
        )

    def insert(
        self,
        predicate: str,
        rows: list,
        shard: Optional[int] = None,
        types: Optional[list[str]] = None,
    ) -> dict[str, Any]:
        return self.request(
            "update", predicate=predicate, action="insert", rows=rows,
            shard=shard, types=types,
        )

    def delete(
        self, predicate: str, rows: list, shard: Optional[int] = None
    ) -> dict[str, Any]:
        return self.request(
            "update", predicate=predicate, action="delete", rows=rows,
            shard=shard,
        )

    def define(self, program: str) -> dict[str, Any]:
        return self.request("define", program=program)

    def materialize(self, predicate: str) -> dict[str, Any]:
        return self.request("materialize", predicate=predicate)

    def lint(self, q: Optional[str] = None) -> dict[str, Any]:
        return self.request("lint", q=q)

    def stats(self) -> dict[str, Any]:
        return self.request("stats")
