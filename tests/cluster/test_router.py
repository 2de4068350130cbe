"""The routing front-end over an in-process cluster."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cluster import ReadPolicy
from repro.server import DkbClient, ServerError, WrongShardError
from repro.workloads.queries import ANCESTOR_RULES

#: Eight chains g0..g7: crc32 spreads them over both shards of the 2-way
#: spec, and each chain is one entity group (shard-local closure).
CHAINS = {
    f"g{index}": [
        (f"g{index}_1", f"g{index}_2"),
        (f"g{index}_2", f"g{index}_3"),
    ]
    for index in range(8)
}
ALL_EDGES = [edge for chain in CHAINS.values() for edge in chain]


def seed(client) -> None:
    client.define(ANCESTOR_RULES)
    client.insert("parent", [list(edge) for edge in ALL_EDGES])


def router_counters(client) -> dict:
    metrics = client.stats()["stats"]["metrics"]
    return dict(metrics.get("counters", metrics))


class TestRouterBasics:
    def test_ping_reports_per_shard_versions(self, make_cluster):
        cluster = make_cluster()
        with cluster.client() as client:
            reply = client.ping()
            assert reply["router"] is True and reply["shards"] == 2
            assert set(reply["versions"]) == {"0", "1"}

    def test_define_fans_to_every_shard(self, make_cluster):
        cluster = make_cluster()
        with cluster.client() as client:
            reply = client.define(ANCESTOR_RULES)
            assert reply["added"] == 2
            assert set(reply["versions"]) == {"0", "1"}

    def test_update_splits_by_owner(self, make_cluster, spec):
        cluster = make_cluster()
        with cluster.client() as client:
            seed(client)
            owners = {spec.shard_of_key(group) for group in CHAINS}
            assert owners == {0, 1}
            # One more edge for one specific group lands only on its owner.
            reply = client.insert("parent", [["g0_3", "g0_4"]])
            assert reply["shards"] == [spec.shard_of_key("g0_3")]
            assert reply["count"] == 1

    def test_empty_update_answers_the_witnessed_versions(self, make_cluster):
        # A single server answers an empty update with its version; the
        # router, where no shard writes, with the versions it witnessed.
        cluster = make_cluster()
        with cluster.client() as client:
            seed(client)
            witnessed = client.ping()["versions"]
            reply = client.insert("parent", [])
            assert reply["count"] == 0
            assert reply["versions"] == witnessed
            assert reply["version"] == min(witnessed.values())

    def test_router_connections_share_backend_connections(
        self, make_cluster, spec
    ):
        cluster = make_cluster()
        owner = spec.shard_of_key("g1_1")
        with cluster.client() as first:
            seed(first)
            assert first.query("?- ancestor('g1_1', Y).")["shards"] == [owner]
        with cluster.client() as second:
            assert second.query("?- ancestor('g1_1', Y).")["shards"] == [owner]
        primary = cluster.shards[owner].primary
        assert primary.metrics.counter("server.connections").value == 1

    def test_concurrent_connections_share_the_pool_safely(self, make_cluster):
        # More router connections than cores and than a shard has readers,
        # with a short switch interval: two threads handed the same backend
        # connection would read each other's replies, and a pool opening
        # more connections than the shard admits would stall at admission.
        cluster = make_cluster()
        with cluster.client() as client:
            seed(client)
        workers = 8
        failures: list[str] = []

        def reader(index: int) -> None:
            group = f"g{index % len(CHAINS)}"
            expected = [[f"{group}_2"], [f"{group}_3"]]
            try:
                with cluster.client(timeout=20.0) as client:
                    for _ in range(15):
                        rows = client.query(f"?- ancestor('{group}_1', Y).")["rows"]
                        if sorted(rows) != expected:
                            failures.append(f"{group}: {rows}")
                    client.stats()
            except Exception as error:  # reported below, not swallowed
                failures.append(f"{group}: {error!r}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader, args=(index,), daemon=True)
                for index in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        for runtime in cluster.shards:
            connections = runtime.primary.metrics.counter("server.connections")
            assert connections.value <= cluster.config.readers < workers

    def test_broadcast_update_counts_one_copy(self, make_cluster):
        cluster = make_cluster()
        with cluster.client() as client:
            seed(client)
            reply = client.insert("label", [["g0_1", "head"]])
            assert reply["count"] == 1
            assert reply["shards"] == [0, 1]
            # Any single shard can then answer the broadcast-only read.
            read = client.query("?- label(X, L).")
            assert read["rows"] == [["g0_1", "head"]]
            assert len(read["shards"]) == 1


class TestRouterReads:
    def test_pinned_read_touches_one_shard(self, make_cluster, spec):
        cluster = make_cluster()
        with cluster.client() as client:
            seed(client)
            reply = client.query("?- ancestor('g1_1', Y).")
            assert reply["shards"] == [spec.shard_of_key("g1_1")]
            assert sorted(reply["rows"]) == [["g1_2"], ["g1_3"]]
            assert router_counters(client).get("router.pinned_reads", 0) >= 1

    def test_bad_optimize_is_refused_at_the_router(self, make_cluster):
        cluster = make_cluster()
        with cluster.client() as client:
            seed(client)
            for __ in range(2):  # cold, then after the form was answered
                with pytest.raises(ServerError) as excinfo:
                    client.request(
                        "query", q="?- ancestor('g1_1', Y).", optimize="bogus"
                    )
                assert excinfo.value.code == "BAD_REQUEST"
                client.query("?- ancestor('g1_1', Y).")

    def test_fanout_read_merges_all_shards(self, make_cluster):
        cluster = make_cluster()
        with cluster.client() as client:
            seed(client)
            reply = client.query("?- ancestor(X, Y).")
            assert set(reply["shards"]) == {0, 1}
            expected = {
                (f"g{i}_{a}", f"g{i}_{b}")
                for i in range(8)
                for a, b in ((1, 2), (2, 3), (1, 3))
            }
            assert {tuple(row) for row in reply["rows"]} == expected
            assert set(reply["versions"]) == {"0", "1"}
            assert router_counters(client).get("router.fanout_reads", 0) >= 1

    def test_fanout_works_when_one_shard_owns_nothing(self, make_cluster, spec):
        # Regression: the first insert must materialize the relation's
        # schema on shards that received none of its rows, or shard-local
        # evaluation fails with an undefined-predicate error there.
        cluster = make_cluster()
        with cluster.client() as client:
            client.define(ANCESTOR_RULES)
            client.insert("parent", [["g0_1", "g0_2"]])  # one shard only
            reply = client.query("?- ancestor(X, Y).")
            assert set(reply["shards"]) == {0, 1}
            assert reply["rows"] == [["g0_1", "g0_2"]]

    def test_lint_and_stats_aggregate(self, make_cluster):
        cluster = make_cluster()
        with cluster.client() as client:
            seed(client)
            assert isinstance(client.lint()["diagnostics"], list)
            stats = client.stats()["stats"]
            assert stats["router"] is True
            assert set(stats["shards"]) == {"0", "1"}
            assert stats["partition"]["shards"] == 2


class TestShardEnforcement:
    def test_direct_write_to_the_wrong_shard_is_refused(self, make_cluster, spec):
        cluster = make_cluster()
        with cluster.client() as client:
            seed(client)
        owner = spec.shard_of_key("g0_1")
        wrong = cluster.shards[1 - owner].primary
        host, port = wrong.address
        with DkbClient(host, port) as direct:
            with pytest.raises(WrongShardError) as excinfo:
                direct.insert("parent", [["g0_1", "g0_9"]])
            assert excinfo.value.details["owner"] == owner

    def test_mismatched_shard_field_is_refused(self, make_cluster):
        cluster = make_cluster()
        host, port = cluster.shards[0].primary.address
        with DkbClient(host, port) as direct:
            with pytest.raises(WrongShardError) as excinfo:
                direct.query("?- parent(X, Y).", shard=1)
            assert excinfo.value.details["shard"] == 0


class TestReadPolicies:
    def test_read_my_writes_survives_a_lagging_replica(self, make_cluster, spec):
        cluster = make_cluster(
            replicas=1, read_policy=ReadPolicy(prefer_replica=True)
        )
        with cluster.client() as client:
            seed(client)
            cluster.sync_replicas()
            # This write is NOT replicated (manual sync only): a replica
            # read would miss it, so the router must fall back to the
            # primary to honour the connection's own write.
            client.insert("parent", [["g2_3", "g2_4"]])
            reply = client.query("?- ancestor('g2_1', Y).")
            assert ["g2_4"] in reply["rows"]
            assert router_counters(client).get("router.stale_fallbacks", 0) >= 1

    def test_synced_replica_serves_the_floor(self, make_cluster, spec):
        cluster = make_cluster(
            replicas=1, read_policy=ReadPolicy(prefer_replica=True)
        )
        with cluster.client() as client:
            seed(client)
            cluster.sync_replicas()
            before = router_counters(client).get("router.stale_fallbacks", 0)
            reply = client.query("?- ancestor('g3_1', Y).")
            assert sorted(reply["rows"]) == [["g3_2"], ["g3_3"]]
            assert (
                router_counters(client).get("router.stale_fallbacks", 0)
                == before
            )

    def test_max_lag_zero_forces_fresh_reads(self, make_cluster):
        cluster = make_cluster(
            replicas=1,
            read_policy=ReadPolicy(prefer_replica=True, max_lag=0),
        )
        with cluster.client() as client:
            seed(client)  # replicas never synced: watermark = seed-time copy
            # A second connection has no write floors — only max_lag binds.
            with cluster.client() as reader:
                reader.ping()  # witness the primaries' current versions
                reply = reader.query("?- ancestor('g4_1', Y).")
                assert sorted(reply["rows"]) == [["g4_2"], ["g4_3"]]

    def test_unbounded_staleness_serves_the_old_snapshot(self, make_cluster, spec):
        cluster = make_cluster(
            replicas=1,
            read_policy=ReadPolicy(
                prefer_replica=True, max_lag=None, read_my_writes=False
            ),
        )
        with cluster.client() as client:
            seed(client)
            cluster.sync_replicas()
            synced = client.ping()["versions"]
            client.insert("parent", [["g5_3", "g5_4"]])
            # No floor at all: the lagging replica's answer is acceptable
            # and must be exactly the closure at its watermark.
            reply = client.query("?- ancestor('g5_1', Y).")
            owner = str(spec.shard_of_key("g5_1"))
            assert reply["version"] == int(synced[owner])
            assert ["g5_4"] not in reply["rows"]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ReadPolicy(max_lag=-1)
