"""The wire protocol: framing, validation, structured errors."""

from __future__ import annotations

import json

import pytest

from repro.server.protocol import (
    MAX_MESSAGE_BYTES,
    ErrorCode,
    ProtocolError,
    decode_line,
    encode_message,
    error_reply,
    ok_reply,
    validate_request,
)


def test_encode_decode_roundtrip():
    message = {"op": "query", "q": "?- ancestor(X, Y).", "id": 7}
    line = encode_message(message)
    assert line.endswith(b"\n")
    assert b"\n" not in line[:-1]
    assert decode_line(line[:-1]) == message


def test_decode_rejects_bad_json():
    with pytest.raises(ProtocolError) as excinfo:
        decode_line(b"{not json")
    assert excinfo.value.code == ErrorCode.PARSE_ERROR


def test_decode_rejects_non_object():
    with pytest.raises(ProtocolError) as excinfo:
        decode_line(b"[1, 2, 3]")
    assert excinfo.value.code == ErrorCode.PARSE_ERROR


def test_decode_rejects_oversized_line():
    huge = b'{"op": "ping", "pad": "' + b"x" * MAX_MESSAGE_BYTES + b'"}'
    with pytest.raises(ProtocolError) as excinfo:
        decode_line(huge)
    assert excinfo.value.code == ErrorCode.PARSE_ERROR


@pytest.mark.parametrize(
    "message",
    [
        {"op": "ping"},
        {"op": "query", "q": "?- p(X).", "bindings": {"X": 1}},
        {"op": "query", "q": "?- p(X).", "use_cache": False, "id": "abc"},
        {"op": "update", "predicate": "p", "action": "insert", "rows": [[1]]},
        {"op": "update", "predicate": "p", "action": "delete", "rows": []},
        {"op": "define", "program": "p(1)."},
        {"op": "materialize", "predicate": "anc"},
        {"op": "lint"},
        {"op": "lint", "q": "?- p(X)."},
        {"op": "stats"},
        {"op": "query", "q": "?- p(X).", "optimize": True},
        {"op": "query", "q": "?- p(X).", "optimize": False},
        {"op": "query", "q": "?- p(X).", "optimize": "auto"},
        {"op": "query", "q": "?- p(X).", "use_views": False, "use_cache": True},
    ],
)
def test_validate_accepts_well_formed(message):
    assert validate_request(message) is message


@pytest.mark.parametrize(
    "message",
    [
        "not a dict",
        {},
        {"op": "noop"},
        {"op": "query"},  # missing q
        {"op": "query", "q": 42},
        {"op": "query", "q": "?- p(X).", "extra": 1},
        {"op": "query", "q": "?- p(X).", "bindings": [1]},
        {"op": "update", "predicate": "p", "action": "upsert", "rows": []},
        {"op": "update", "predicate": "p", "action": "insert", "rows": "x"},
        {"op": "update", "predicate": "p", "action": "insert", "rows": [1]},
        {"op": "define", "program": 7},
        {"op": "materialize"},
        {"op": "query", "q": "?- p(X).", "optimize": "bogus"},
        {"op": "query", "q": "?- p(X).", "optimize": "magic"},
        {"op": "query", "q": "?- p(X).", "optimize": "supplementary"},
        {"op": "query", "q": "?- p(X).", "optimize": [1]},
        {"op": "query", "q": "?- p(X).", "optimize": 1},
        {"op": "query", "q": "?- p(X).", "optimize": None},
        {"op": "query", "q": "?- p(X).", "use_cache": "no"},
        {"op": "query", "q": "?- p(X).", "use_views": "no"},
        {"op": "query", "q": "?- p(X).", "use_views": 0},
    ],
)
def test_validate_rejects_malformed(message):
    with pytest.raises(ProtocolError) as excinfo:
        validate_request(message)
    assert excinfo.value.code == ErrorCode.BAD_REQUEST


def test_replies_echo_id_and_carry_structure():
    ok = ok_reply("req-1", rows=[[1]])
    assert ok == {"ok": True, "id": "req-1", "rows": [[1]]}
    err = error_reply(2, ErrorCode.SERVER_BUSY, "full")
    assert err["ok"] is False and err["id"] == 2
    assert err["error"] == {"code": "SERVER_BUSY", "message": "full"}
    # Both shapes are wire-encodable.
    json.loads(encode_message(ok))
    json.loads(encode_message(err))


def test_protocol_error_requires_known_code():
    with pytest.raises(ValueError):
        ProtocolError("NOT_A_CODE", "nope")


class TestClusterExtensions:
    """The routing/replication fields and retryable codes added for PR 7."""

    @pytest.mark.parametrize(
        "message",
        [
            {"op": "query", "q": "?- p(X).", "min_version": 3, "shard": 0},
            {
                "op": "update",
                "predicate": "p",
                "action": "insert",
                "rows": [[1]],
                "shard": 1,
                "types": ["INTEGER"],
            },
            # Empty typed insert: how the router materializes a relation's
            # schema on shards that own none of its rows.
            {
                "op": "update",
                "predicate": "p",
                "action": "insert",
                "rows": [],
                "types": ["TEXT", "TEXT"],
            },
            {"op": "define", "program": "p(1).", "shard": 0},
            {"op": "materialize", "predicate": "anc", "shard": 1},
        ],
    )
    def test_validate_accepts_cluster_fields(self, message):
        assert validate_request(message) is message

    @pytest.mark.parametrize(
        "message",
        [
            {"op": "query", "q": "?- p(X).", "min_version": -1},
            {"op": "query", "q": "?- p(X).", "min_version": True},
            {"op": "query", "q": "?- p(X).", "shard": "0"},
            {
                "op": "update",
                "predicate": "p",
                "action": "insert",
                "rows": [],
                "types": "INTEGER",  # must be a list
            },
            {
                "op": "update",
                "predicate": "p",
                "action": "insert",
                "rows": [],
                "types": [1],  # names, not codes
            },
        ],
    )
    def test_validate_rejects_malformed_cluster_fields(self, message):
        with pytest.raises(ProtocolError) as excinfo:
            validate_request(message)
        assert excinfo.value.code == ErrorCode.BAD_REQUEST

    def test_routing_codes_are_retryable(self):
        assert ErrorCode.WRONG_SHARD in ErrorCode.RETRYABLE
        assert ErrorCode.STALE_REPLICA in ErrorCode.RETRYABLE
        assert ErrorCode.SERVER_BUSY in ErrorCode.RETRYABLE
        assert ErrorCode.EVALUATION_ERROR not in ErrorCode.RETRYABLE

    def test_error_reply_carries_details(self):
        hints = {"retry_after": 0.25, "leader": ["127.0.0.1", 7407]}
        reply = error_reply(9, ErrorCode.STALE_REPLICA, "behind", hints)
        assert reply["error"]["details"] == hints
        json.loads(encode_message(reply))
        # No details -> no key: older clients see the PR-5 shape unchanged.
        bare = error_reply(9, ErrorCode.SERVER_BUSY, "full")
        assert "details" not in bare["error"]

    def test_protocol_error_copies_details(self):
        hints = {"owner": 1}
        error = ProtocolError(ErrorCode.WRONG_SHARD, "not mine", hints)
        hints["owner"] = 2
        assert error.details == {"owner": 1}
