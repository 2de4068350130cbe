"""The cache-hit read path: one version probe, nothing else.

A hit is served from one autocommit ``SELECT`` of the D/KB version — no
transaction, no budget machinery, no thread — and is still the closure at
exactly the version it is returned with.
"""

from __future__ import annotations

import threading

import pytest

from repro.server import DkbClient
from repro.server.pool import StaleSnapshot

ANCESTOR_JOHN = "?- ancestor('john', Y)."


def test_served_cache_hits_start_no_thread(server, monkeypatch):
    host, port = server.address
    with DkbClient(host, port) as client:
        client.query(ANCESTOR_JOHN)  # the miss that fills the cache
        started: list[str] = []
        start = threading.Thread.start

        def counting_start(self, *args, **kwargs):
            started.append(self.name)
            return start(self, *args, **kwargs)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        before = threading.active_count()
        for _ in range(200):
            assert client.query(ANCESTOR_JOHN)["cached"] is True
        assert threading.active_count() == before
    assert started == []


def test_cache_hit_issues_one_statement_and_no_transaction(pool):
    with pool.reader() as session:
        cold = session.query(ANCESTOR_JOHN)
        connection = session.testbed.database._connection
        statements: list[str] = []
        connection.set_trace_callback(statements.append)
        try:
            warm = session.query(ANCESTOR_JOHN, timeout=30.0)
        finally:
            connection.set_trace_callback(None)
    assert warm.cached and warm.rows == cold.rows
    assert warm.version == cold.version == pool.version()
    assert len(statements) == 1, statements
    assert statements[0].lstrip().upper().startswith("SELECT VERSION")


def test_hit_below_the_version_floor_is_not_served(pool):
    """A cached answer older than ``min_version`` never short-cuts the
    floor: the read falls through to the snapshot check."""
    version = pool.query(ANCESTOR_JOHN).version
    assert pool.query(ANCESTOR_JOHN, min_version=version).cached
    with pytest.raises(StaleSnapshot) as excinfo:
        pool.query(ANCESTOR_JOHN, min_version=version + 1)
    assert excinfo.value.version == version
    assert excinfo.value.min_version == version + 1
