"""End-to-end TCP service tests: every op, every structured error path."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.server import DkbClient, ServerError
from repro.server.protocol import decode_line, encode_message
from repro.server.service import DkbServer, ServerConfig


@pytest.fixture
def client(server):
    host, port = server.address
    with DkbClient(host, port) as client:
        yield client


def test_ping_reports_protocol_and_version(client, server):
    reply = client.ping()
    assert reply["pong"] is True
    assert reply["protocol"] == 1
    assert reply["version"] == server.pool.version()


def test_ping_and_stats_do_not_queue_behind_a_write(client, server):
    before = client.ping()["version"]
    holding = threading.Event()

    def hold_the_writer():
        with server.pool.write() as testbed:
            testbed.load_facts("parent", [("ann", "pending")])
            holding.set()
            time.sleep(0.5)  # maintenance still in flight

    writer = threading.Thread(target=hold_the_writer)
    writer.start()
    try:
        assert holding.wait(5.0)
        started = time.perf_counter()
        ping = client.ping()
        stats = client.stats()["stats"]
        elapsed = time.perf_counter() - started
    finally:
        writer.join(10.0)
    assert not writer.is_alive()
    assert elapsed < 0.1
    # The uncommitted write is invisible; its commit is seen next.
    assert ping["version"] == stats["pool"]["version"] == before
    assert client.ping()["version"] == before + 1


def test_query_with_bindings(client):
    reply = client.query("?- ancestor(X, Y).", bindings={"X": "john"})
    rows = {tuple(row) for row in reply["rows"]}
    assert ("ann",) in rows and ("mary",) in rows
    assert reply["count"] == len(rows)
    assert reply["cached"] is False
    assert reply["seconds"] > 0


def test_repeat_query_served_from_cache(client):
    cold = client.query("?- ancestor('john', Y).")
    warm = client.query("?- ancestor(X, Y).", bindings={"X": "john"})
    assert not cold["cached"] and warm["cached"]
    assert warm["rows"] == cold["rows"]
    assert warm["version"] == cold["version"]


def test_update_bumps_version_and_changes_answers(client):
    before = client.ping()["version"]
    insert = client.insert("parent", [["ann", "newborn"]])
    assert insert["count"] == 1 and insert["version"] == before + 1
    rows = {tuple(r) for r in client.query("?- ancestor('john', Y).")["rows"]}
    assert ("newborn",) in rows
    delete = client.delete("parent", [["ann", "newborn"]])
    assert delete["version"] == before + 2


def test_update_reply_carries_its_own_version(client, server, monkeypatch):
    """A write committing between an update's commit and its reply must
    not leak its later version into that reply (it would raise the
    caller's read-my-writes floor past the caller's own write)."""
    pool = server.pool
    load_facts = pool.load_facts

    def load_then_race(*args, **kwargs):
        count = load_facts(*args, **kwargs)
        racer = threading.Thread(
            target=load_facts, args=("parent", [("ann", "racer")])
        )
        racer.start()
        racer.join()
        return count

    monkeypatch.setattr(pool, "load_facts", load_then_race)
    before = client.ping()["version"]
    reply = client.insert("parent", [["ann", "newborn"]])
    assert pool.version() == before + 2
    assert reply["version"] == before + 1


def test_define_and_materialize(client):
    defined = client.define(
        "grandparent(X, Y) :- parent(X, Z), parent(Z, Y)."
    )
    assert defined["added"] == 1
    rows = {tuple(r) for r in client.query("?- grandparent('john', Y).")["rows"]}
    assert ("sue",) in rows
    materialized = client.materialize("ancestor")
    assert materialized["count"] > 0
    reply = client.query("?- ancestor('john', Y).", use_cache=False)
    assert reply["answered_from_view"] is True


def test_lint_reports_diagnostics(client):
    reply = client.lint()
    assert isinstance(reply["diagnostics"], list)
    for diagnostic in reply["diagnostics"]:
        assert {"code", "severity", "message"} <= diagnostic.keys()


def test_stats_exposes_pool_cache_and_metrics(client):
    client.query("?- ancestor('john', Y).")
    client.query("?- ancestor('john', Y).")
    stats = client.stats()["stats"]
    assert stats["pool"]["cache"]["hits"] >= 1
    assert stats["pool"]["admission"]["in_use"] >= 1  # this connection
    assert stats["metrics"]["counters"]["server.requests"] >= 2
    assert stats["uptime_seconds"] >= 0


def test_evaluation_error_reply(client):
    with pytest.raises(ServerError) as excinfo:
        client.query("?- undefined_pred(X).")
    assert excinfo.value.code == "EVALUATION_ERROR"


def test_bad_query_text_is_bad_request(client):
    with pytest.raises(ServerError) as excinfo:
        client.query("not a query at all")
    assert excinfo.value.code == "BAD_REQUEST"


def test_unknown_binding_is_bad_request(client):
    with pytest.raises(ServerError) as excinfo:
        client.query("?- ancestor(X, Y).", bindings={"Nope": 1})
    assert excinfo.value.code == "BAD_REQUEST"


def test_unknown_strategy_is_bad_request(client):
    with pytest.raises(ServerError) as excinfo:
        client.query("?- ancestor('john', Y).", strategy="quantum")
    assert excinfo.value.code == "BAD_REQUEST"


@pytest.mark.parametrize("optimize", ["bogus", "magic", [1], 1])
def test_bad_optimize_is_bad_request_cold_and_cached(client, optimize):
    query = "?- ancestor('john', Y)."
    for warmed in (False, True):
        with pytest.raises(ServerError) as excinfo:
            client.request("query", q=query, optimize=optimize)
        assert excinfo.value.code == "BAD_REQUEST", warmed
        # The next round asks again with the answer in the result cache.
        client.query(query)
    assert client.query(query)["cached"] is True


def test_unknown_op_is_bad_request(client):
    with pytest.raises(ServerError) as excinfo:
        client.request("frobnicate")
    assert excinfo.value.code == "BAD_REQUEST"


def test_malformed_json_line_is_parse_error(server):
    host, port = server.address
    with socket.create_connection((host, port), timeout=10.0) as raw:
        raw.sendall(b"{this is not json\n")
        reply = decode_line(raw.makefile("rb").readline())
    assert reply["ok"] is False
    assert reply["error"]["code"] == "PARSE_ERROR"


def test_request_id_echoed_on_success_and_error(server):
    host, port = server.address
    with socket.create_connection((host, port), timeout=10.0) as raw:
        stream = raw.makefile("rwb")
        stream.write(encode_message({"op": "ping", "id": "alpha"}))
        stream.write(encode_message({"op": "nope", "id": "beta"}))
        stream.flush()
        first = decode_line(stream.readline())
        second = decode_line(stream.readline())
    assert first["ok"] is True and first["id"] == "alpha"
    assert second["ok"] is False and second["id"] == "beta"


def test_connection_slots_shed_excess_clients(dkb_path):
    config = ServerConfig(
        path=dkb_path, readers=1, max_waiters=0, cache_size=8
    )
    with DkbServer(config) as server:
        host, port = server.address
        with DkbClient(host, port) as holder:
            holder.ping()  # the one session is now attached
            # A second connection cannot get a session: the server sheds it
            # with a structured SERVER_BUSY reply on its first request.
            with DkbClient(host, port) as shed:
                with pytest.raises(ServerError) as excinfo:
                    shed.ping()
                assert excinfo.value.code == "SERVER_BUSY"
        # Holder disconnected: the slot recycles to new connections.  The
        # handler thread releases the session asynchronously after the TCP
        # close, so briefly retry instead of racing it.
        deadline = time.monotonic() + 5.0
        while True:
            try:
                with DkbClient(host, port) as next_client:
                    assert next_client.ping()["pong"] is True
                break
            except ServerError as error:
                if error.code != "SERVER_BUSY" or time.monotonic() >= deadline:
                    raise
                time.sleep(0.02)


def test_concurrent_clients_each_get_answers(server):
    host, port = server.address
    errors: list[Exception] = []

    def hammer():
        try:
            with DkbClient(host, port) as client:
                for _ in range(5):
                    reply = client.query("?- ancestor('john', Y).")
                    assert reply["count"] >= 4
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=hammer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not errors


def test_defaulted_requests_use_the_library_defaults(client):
    first = client.query("?- ancestor('john', Y).")
    repeat = client.query("?- ancestor('john', Y).")
    explicit = client.query("?- ancestor('john', Y).", use_cache=False)
    assert first["cached"] is False and repeat["cached"] is True
    assert explicit["cached"] is False
    assert first["rows"] == repeat["rows"] == explicit["rows"]
