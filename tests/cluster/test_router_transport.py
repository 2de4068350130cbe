"""A backend that fails its transport must not poison the router connection."""

from __future__ import annotations

import json
import socketserver
import threading
import time

import pytest

from repro.cluster import (
    ClusterRouter,
    PartitionSpec,
    Partitioner,
    RouterConfig,
    ShardAddresses,
)
from repro.server import DkbClient, ServerError

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
        self.lock = threading.Lock()


class _StubHandler(socketserver.StreamRequestHandler):
    server: _SlowFirstBackend

    def handle(self) -> None:
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


@pytest.fixture
def slow_backend():
    backend = _SlowFirstBackend(delay=0.5)
    thread = threading.Thread(target=backend.serve_forever, daemon=True)
    thread.start()
    yield backend
    backend.shutdown()
    backend.server_close()
    thread.join(timeout=5.0)


def test_a_timed_out_backend_reply_does_not_poison_the_connection(slow_backend):
    config = RouterConfig(
        partitioner=Partitioner(PartitionSpec(shards=1)),
        shards=(ShardAddresses(0, slow_backend.server_address[:2]),),
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
