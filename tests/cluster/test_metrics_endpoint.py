"""Scraping the cluster router's /metrics side port (2 shards + replicas)."""

from __future__ import annotations

import re
import urllib.request

import pytest

from repro.obs.metrics import REQUEST_SECONDS_BUCKETS


def scrape(router) -> str:
    host, port = router.exporter.address
    with urllib.request.urlopen(
        f"http://{host}:{port}/metrics", timeout=5.0
    ) as response:
        assert response.status == 200
        return response.read().decode("utf-8")


def sample_value(body: str, family: str, **labels: str) -> float:
    """The value of the one sample matching ``family`` and ``labels``."""
    wanted = {key: value for key, value in labels.items()}
    for line in body.splitlines():
        if not line.startswith(family):
            continue
        match = re.match(r"^(\w+)(?:\{([^}]*)\})? (.+)$", line)
        if match is None or match.group(1) != family:
            continue
        present = dict(
            re.findall(r'(\w+)="([^"]*)"', match.group(2) or "")
        )
        if all(present.get(key) == value for key, value in wanted.items()):
            return float(match.group(3))
    raise AssertionError(f"no {family} sample with labels {labels}: {body}")


class TestRouterMetricsEndpoint:
    def test_scrape_two_shard_cluster_with_replicas(self, make_cluster):
        with make_cluster(replicas=1, metrics_port=0) as cluster:
            assert cluster.router.exporter is not None
            # Lazily-created counters are pre-touched: the zero series is
            # scrapeable before any traffic arrives.
            body = scrape(cluster.router)
            assert sample_value(
                body, "router_stale_fallbacks_total", role="router"
            ) == 0.0
            assert sample_value(
                body, "router_requests_total", role="router"
            ) == 0.0
            with cluster.client() as client:
                client.insert("parent", [["g0_1", "g0_2"], ["g0_2", "g0_3"]])
                client.query("?- parent('g0_1', Y).")
            cluster.sync_replicas()
            body = scrape(cluster.router)

            # Router counters carry the role label and the _total suffix.
            assert sample_value(
                body, "router_requests_total", role="router"
            ) >= 2.0
            assert sample_value(
                body, "router_writes_total", role="router"
            ) >= 1.0

            # Per-shard health and version, per-replica watermark and lag.
            for shard in ("0", "1"):
                assert sample_value(
                    body, "cluster_primary_up", shard=shard
                ) == 1.0
                assert sample_value(
                    body, "cluster_replica_up", shard=shard, replica="0"
                ) == 1.0
                lag = sample_value(
                    body, "cluster_replica_lag", shard=shard, replica="0"
                )
                assert lag == 0.0  # just synced
                assert sample_value(
                    body, "cluster_shard_version", shard=shard
                ) == sample_value(
                    body,
                    "cluster_replica_watermark",
                    shard=shard,
                    replica="0",
                )

    def test_replica_lag_rises_after_unsynced_write(self, make_cluster, spec):
        with make_cluster(replicas=1, metrics_port=0) as cluster:
            with cluster.client() as client:
                client.insert("parent", [["g0_1", "g0_2"]])
            cluster.sync_replicas()
            with cluster.client() as client:
                client.insert("parent", [["g0_5", "g0_6"]])  # not synced
            body = scrape(cluster.router)
            # Both rows share the "g0" key prefix, so they land on one shard.
            shard = str(spec.shard_of_row("parent", ("g0_1", "g0_2")))
            lag = sample_value(
                body, "cluster_replica_lag", shard=shard, replica="0"
            )
            assert lag >= 1.0
            cluster.sync_replicas()
            body = scrape(cluster.router)
            assert sample_value(
                body, "cluster_replica_lag", shard=shard, replica="0"
            ) == 0.0

    def test_request_histogram_uses_the_request_buckets(self, make_cluster):
        with make_cluster(replicas=0, metrics_port=0) as cluster:
            with cluster.client() as client:
                client.insert("parent", [["g0_1", "g0_2"]])
                client.query("?- parent('g0_1', Y).")
            histogram = cluster.router.metrics.histograms["router.request_seconds"]
            assert histogram.bounds == REQUEST_SECONDS_BUCKETS
            body = scrape(cluster.router)
            assert sample_value(
                body, "router_request_seconds_bucket", role="router", le="+Inf"
            ) == sample_value(body, "router_requests_total", role="router")
            sample_value(
                body, "router_request_seconds_bucket", role="router", le="0.00025"
            )

    def test_no_exporter_without_metrics_port(self, make_cluster):
        with make_cluster(replicas=0) as cluster:
            assert cluster.router.exporter is None

    def test_scrape_survives_a_dead_replica(self, make_cluster):
        with make_cluster(replicas=1, metrics_port=0) as cluster:
            cluster.sync_replicas()
            # Kill shard 0's replica server; the scrape must degrade to
            # up=0 for it, not fail.
            runtime = cluster.shards[0]
            runtime.replicas[0].close()
            body = scrape(cluster.router)
            assert sample_value(
                body, "cluster_replica_up", shard="0", replica="0"
            ) == 0.0
            assert sample_value(
                body, "cluster_replica_up", shard="1", replica="0"
            ) == 1.0
