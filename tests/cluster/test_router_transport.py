"""A backend that fails its transport must not poison the router connection."""

from __future__ import annotations

import json
import socketserver
import threading
import time
from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.cluster import (
    ClusterRouter,
    PartitionSpec,
    Partitioner,
    RouterConfig,
    ShardAddresses,
)
from repro.server import DkbClient, ServerError

from .test_metrics_endpoint import sample_value, scrape

#: Backend socket timeout of the router under test, seconds.
TIMEOUT = 0.2


class _SlowFirstBackend(socketserver.ThreadingTCPServer):
    """A stub shard that answers every query with one row, except that it
    holds its first reply for ``delay`` seconds."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, delay: float) -> None:
        super().__init__(("127.0.0.1", 0), _StubHandler)
        self.delay = delay
        self.requests = 0
        self.connections = 0
        self.lock = threading.Lock()


class _StubHandler(socketserver.StreamRequestHandler):
    server: _SlowFirstBackend

    def handle(self) -> None:
        with self.server.lock:
            self.server.connections += 1
        for line in self.rfile:
            message = json.loads(line)
            with self.server.lock:
                self.server.requests += 1
                first = self.server.requests == 1
            if first:
                time.sleep(self.server.delay)
            reply = {
                "ok": True,
                "id": message["id"],
                "rows": [["a"]],
                "count": 1,
                "version": 1,
            }
            try:
                self.wfile.write(json.dumps(reply).encode() + b"\n")
                self.wfile.flush()
            except OSError:
                return  # the router gave up on this connection


@contextmanager
def _serving(delay: float) -> Iterator[_SlowFirstBackend]:
    backend = _SlowFirstBackend(delay)
    thread = threading.Thread(target=backend.serve_forever, daemon=True)
    thread.start()
    try:
        yield backend
    finally:
        backend.shutdown()
        backend.server_close()
        thread.join(timeout=5.0)


@pytest.fixture
def slow_backend():
    with _serving(delay=0.5) as backend:
        yield backend


def test_a_timed_out_backend_reply_does_not_poison_the_connection(slow_backend):
    config = RouterConfig(
        partitioner=Partitioner(PartitionSpec(shards=1)),
        shards=(ShardAddresses(0, slow_backend.server_address[:2], readers=1),),
        connect_timeout=TIMEOUT,
    )
    with ClusterRouter(config) as router:
        with DkbClient(*router.address, timeout=5.0) as client:
            with pytest.raises(ServerError) as excinfo:
                client.query("?- p(X).")
            assert excinfo.value.code == "TIMEOUT"
            # The same router connection: the timed-out backend client was
            # dropped, so these reconnect instead of reading a dead stream.
            for __ in range(3):
                assert client.query("?- p(X).")["rows"] == [["a"]]


def test_a_request_waits_for_the_one_connection_a_backend_admits(slow_backend):
    config = RouterConfig(
        partitioner=Partitioner(PartitionSpec(shards=1)),
        shards=(ShardAddresses(0, slow_backend.server_address[:2], readers=1),),
        connect_timeout=5.0,
    )
    replies: list = []

    def ask() -> None:
        with DkbClient(*router.address, timeout=10.0) as client:
            replies.append(client.query("?- p(X).")["rows"])

    with ClusterRouter(config) as router:
        # The first query holds the backend's one connection for 0.5 s; the
        # second waits in the router's pool for it instead of opening more.
        askers = [threading.Thread(target=ask, daemon=True) for _ in range(2)]
        for asker in askers:
            asker.start()
        for asker in askers:
            asker.join(10.0)
        assert not any(asker.is_alive() for asker in askers)
    assert replies == [[["a"]], [["a"]]]
    assert slow_backend.connections == 1


def test_a_scrape_does_not_wait_for_a_busy_backend():
    with _serving(delay=2.0) as backend:
        config = RouterConfig(
            partitioner=Partitioner(PartitionSpec(shards=1)),
            shards=(ShardAddresses(0, backend.server_address[:2], readers=1),),
            connect_timeout=5.0,
            metrics_port=0,
        )
        with ClusterRouter(config) as router:

            def ask() -> None:
                with DkbClient(*router.address, timeout=10.0) as client:
                    client.query("?- p(X).")

            # The query holds the backend's one connection for 2 s.
            asker = threading.Thread(target=ask, daemon=True)
            asker.start()
            deadline = time.monotonic() + 5.0
            while backend.requests == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            started = time.monotonic()
            body = scrape(router)
            assert time.monotonic() - started < 1.0
            # Busy is not down: the shard reads up, with no fresh stats.
            assert sample_value(body, "cluster_primary_up", shard="0") == 1.0
            entry = router.stats()["shards"]["0"]
            assert (entry["primary_state"], entry["primary"]) == ("busy", None)
            asker.join(10.0)
            assert not asker.is_alive()
