"""Snapshot-copy replication: watermarks, version gating, staleness floors."""

from __future__ import annotations

import os

import pytest

from repro.cluster import PartitionSpec, Replicator, TablePartition
from repro.server import (
    DkbClient,
    SessionPool,
    StaleReplicaError,
    WrongShardError,
)
from repro.server.service import DkbServer, ServerConfig
from repro.workloads.queries import ANCESTOR_RULES


@pytest.fixture
def primary_pool(tmp_path):
    path = os.path.join(tmp_path, "primary.sqlite")
    with SessionPool(path, readers=1) as pool:
        pool.define(ANCESTOR_RULES)
        pool.load_facts("parent", [("a", "b"), ("b", "c")])
        yield path, pool


class TestReplicator:
    def test_first_sync_copies_and_sets_the_watermark(self, primary_pool, tmp_path):
        path, pool = primary_pool
        dest = os.path.join(tmp_path, "replica.sqlite")
        with Replicator(path, dest, poll_interval=3600.0) as replicator:
            assert replicator.watermark == -1
            watermark = replicator.sync()
            assert watermark == pool.version()
            assert replicator.copies == 1
            assert os.path.exists(dest)
            # The copy serves the same closure as the primary.
            with SessionPool(dest, readers=1) as replica_pool:
                result = replica_pool.query("?- ancestor('a', Y).")
                assert set(result.rows) == {("b",), ("c",)}

    def test_sync_is_version_gated(self, primary_pool, tmp_path):
        path, pool = primary_pool
        dest = os.path.join(tmp_path, "replica.sqlite")
        with Replicator(path, dest, poll_interval=3600.0) as replicator:
            replicator.sync()
            replicator.sync()  # nothing changed: no second copy
            assert replicator.copies == 1
            pool.load_facts("parent", [("c", "d")])
            assert replicator.lag() == 1
            assert replicator.sync() == pool.version()
            assert replicator.copies == 2
            assert replicator.lag() == 0

    def test_watermark_is_monotonic(self, primary_pool, tmp_path):
        path, pool = primary_pool
        dest = os.path.join(tmp_path, "replica.sqlite")
        with Replicator(path, dest, poll_interval=3600.0) as replicator:
            seen = [replicator.sync()]
            for step in range(3):
                pool.load_facts("parent", [(f"x{step}", f"y{step}")])
                seen.append(replicator.sync())
            assert seen == sorted(seen)
            assert len(set(seen)) == len(seen)


@pytest.fixture
def replica_server(primary_pool, tmp_path):
    """A replica DkbServer over a synced copy, plus its feed."""
    path, pool = primary_pool
    dest = os.path.join(tmp_path, "replica.sqlite")
    with Replicator(path, dest, poll_interval=3600.0) as replicator:
        replicator.sync()
        config = ServerConfig(
            path=dest,
            readers=1,
            shard_id=0,
            role="replica",
            leader=("127.0.0.1", 9999),
            replication_poll=0.125,
        )
        with DkbServer(config) as server:
            yield pool, replicator, server


class TestReplicaServer:
    def test_replica_serves_reads_with_identity(self, replica_server):
        _, _, server = replica_server
        host, port = server.address
        with DkbClient(host, port) as client:
            reply = client.query("?- ancestor('a', Y).")
            assert reply["shard"] == 0 and reply["role"] == "replica"

    def test_replica_refuses_writes_with_leader_hint(self, replica_server):
        _, _, server = replica_server
        host, port = server.address
        with DkbClient(host, port) as client:
            with pytest.raises(WrongShardError) as excinfo:
                client.insert("parent", [["q", "r"]])
            assert excinfo.value.leader == ("127.0.0.1", 9999)
            with pytest.raises(WrongShardError):
                client.define("p(X) :- parent(X, Y).")

    def test_version_floor_enforced_in_the_read_snapshot(self, replica_server):
        pool, replicator, server = replica_server
        host, port = server.address
        with DkbClient(host, port) as client:
            synced = pool.version()
            # Satisfiable floor: the replica is exactly at `synced`.
            reply = client.query("?- ancestor('a', Y).", min_version=synced)
            assert reply["version"] == synced

            # The primary moves on; the unsynced replica must refuse the
            # new floor with structured hints, then serve after a sync.
            pool.load_facts("parent", [("c", "e")])
            floor = pool.version()
            with pytest.raises(StaleReplicaError) as excinfo:
                client.query("?- ancestor('a', Y).", min_version=floor)
            error = excinfo.value
            assert error.details["version"] == synced
            assert error.details["min_version"] == floor
            assert error.retry_after == pytest.approx(0.125)
            assert error.leader == ("127.0.0.1", 9999)

            replicator.sync()
            reply = client.query("?- ancestor('a', Y).", min_version=floor)
            assert reply["version"] == floor
            assert ["e"] in reply["rows"]


class TestShardReplicaMetrics:
    def test_primary_stats_export_replica_copies(self, make_cluster):
        one_shard = PartitionSpec(shards=1, tables={"parent": TablePartition(0)})
        with make_cluster(replicas=1, partition=one_shard) as cluster:
            with cluster.client() as client:
                client.insert("parent", [["a", "b"]])
            cluster.sync_replicas()
            host, port = cluster.shards[0].addresses.primary
            with DkbClient(host, port) as client:
                metrics = client.stats()["stats"]["metrics"]
            assert metrics["counters"]["replica.copies"] >= 1
            assert metrics["gauges"]["replica.lag"] >= 0
