"""The blocking client's wire handling against misbehaving peers."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.server.client import (
    DkbClient,
    ServerError,
    StaleReplicaError,
    WrongShardError,
)
from repro.server.protocol import ErrorCode, ProtocolError


def _one_shot_server(reply: bytes) -> tuple[str, int, threading.Thread]:
    """A listener that accepts one connection, reads the request line,
    writes ``reply`` verbatim, and closes the connection."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()

    def serve():
        conn, __ = listener.accept()
        with conn:
            conn.makefile("rb").readline()
            conn.sendall(reply)
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return host, port, thread


class TestTruncatedReply:
    def test_unterminated_reply_raises_protocol_error(self):
        """A reply cut off before the newline must not be decoded as if
        complete — the old code handed the partial frame to ``decode_line``,
        which could even parse it successfully if the JSON happened to be
        self-delimiting."""
        host, port, thread = _one_shot_server(b'{"ok": true, "id": 1}')
        with DkbClient(host, port, timeout=5.0) as client:
            with pytest.raises(ProtocolError) as excinfo:
                client.ping()
        thread.join(timeout=5.0)
        assert excinfo.value.code == ErrorCode.PARSE_ERROR
        assert "truncated" in str(excinfo.value)

    def test_terminated_reply_still_decodes(self):
        host, port, thread = _one_shot_server(b'{"ok": true, "id": 1}\n')
        with DkbClient(host, port, timeout=5.0) as client:
            reply = client.ping()
        thread.join(timeout=5.0)
        assert reply["ok"] is True

    def test_closed_connection_still_raises_connection_error(self):
        host, port, thread = _one_shot_server(b"")
        with DkbClient(host, port, timeout=5.0) as client:
            with pytest.raises(ConnectionError):
                client.ping()
        thread.join(timeout=5.0)


class TestEchoedId:
    """A reply answers the request whose ``id`` it echoes, or none."""

    def test_wrong_id_raises_protocol_error(self):
        host, port, thread = _one_shot_server(b'{"ok": true, "id": 7}\n')
        with DkbClient(host, port, timeout=5.0) as client:
            with pytest.raises(ProtocolError) as excinfo:
                client.ping()
        thread.join(timeout=5.0)
        assert excinfo.value.code == ErrorCode.PARSE_ERROR
        assert "id 7" in str(excinfo.value)

    def test_error_for_another_request_raises_protocol_error(self):
        host, port, thread = _one_shot_server(
            b'{"ok": false, "id": 2, "error": {"code": "TIMEOUT", '
            b'"message": "slow"}}\n'
        )
        with DkbClient(host, port, timeout=5.0) as client:
            with pytest.raises(ProtocolError):
                client.ping()
        thread.join(timeout=5.0)

    def test_unaddressed_error_is_still_the_servers(self):
        # Admission refuses a connection before reading any request: its
        # SERVER_BUSY reply has no id and still surfaces as that code.
        host, port, thread = _one_shot_server(
            b'{"ok": false, "id": null, "error": {"code": "SERVER_BUSY", '
            b'"message": "full"}}\n'
        )
        with DkbClient(host, port, timeout=5.0) as client:
            with pytest.raises(ServerError) as excinfo:
                client.ping()
        thread.join(timeout=5.0)
        assert excinfo.value.code == "SERVER_BUSY"


class TestTypedRetryableErrors:
    """Cluster error codes surface as typed exceptions with parsed hints."""

    def _raise_from(self, body: bytes):
        host, port, thread = _one_shot_server(body)
        with DkbClient(host, port, timeout=5.0) as client:
            with pytest.raises(ServerError) as excinfo:
                client.ping()
        thread.join(timeout=5.0)
        return excinfo.value

    def test_wrong_shard_carries_owner_and_leader(self):
        error = self._raise_from(
            b'{"ok": false, "id": 1, "error": {"code": "WRONG_SHARD", '
            b'"message": "row belongs to shard 1", '
            b'"details": {"owner": 1, "leader": ["10.0.0.2", 7407]}}}\n'
        )
        assert isinstance(error, WrongShardError)
        assert error.details["owner"] == 1
        assert error.leader == ("10.0.0.2", 7407)
        assert error.retry_after is None

    def test_stale_replica_carries_retry_after(self):
        error = self._raise_from(
            b'{"ok": false, "id": 1, "error": {"code": "STALE_REPLICA", '
            b'"message": "replica behind floor", '
            b'"details": {"version": 3, "min_version": 5, '
            b'"retry_after": 0.25, "leader": ["10.0.0.3", 7408]}}}\n'
        )
        assert isinstance(error, StaleReplicaError)
        assert error.details["min_version"] == 5
        assert error.retry_after == pytest.approx(0.25)
        assert error.leader == ("10.0.0.3", 7408)

    def test_untyped_code_still_raises_plain_server_error(self):
        error = self._raise_from(
            b'{"ok": false, "id": 1, "error": {"code": "EVALUATION_ERROR", '
            b'"message": "no such predicate"}}\n'
        )
        assert type(error) is ServerError
        assert error.details == {}
        assert error.leader is None and error.retry_after is None
