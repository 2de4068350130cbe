"""Scraping a live single-node server's /metrics side port."""

from __future__ import annotations

import threading
import urllib.request

import pytest

from repro.obs.metrics import REQUEST_SECONDS_BUCKETS
from repro.server.client import DkbClient, ServerError
from repro.server.service import DkbServer, ServerConfig

#: The series a scraper derives windowed request statistics from: request,
#: error and shed rates, the cache hit rate, latency quantiles (through the
#: ``le="0.00025"`` bucket, which separates cache hits from misses), and
#: the D/KB version's advance.
DERIVATION_SERIES = (
    "server_requests_total",
    "server_errors_total",
    "server_busy_total",
    "server_cache_hits_total",
    "server_cache_misses_total",
    'server_request_seconds_bucket{le="0.00025"}',
    'server_request_seconds_bucket{le="+Inf"}',
    "server_request_seconds_count",
    "server_dkb_version",
)


def scrape(exporter) -> str:
    host, port = exporter.address
    with urllib.request.urlopen(
        f"http://{host}:{port}/metrics", timeout=5.0
    ) as response:
        assert response.status == 200
        return response.read().decode("utf-8")


def sample(body: str, series: str) -> float:
    """The value of the one sample line starting with ``series``."""
    for line in body.splitlines():
        if line.startswith(series + " "):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"{series} not in the scrape")


@pytest.fixture
def metrics_server(dkb_path):
    """A running one-session server with the exporter and no wait queue."""
    config = ServerConfig(
        path=dkb_path,
        readers=1,
        max_waiters=0,
        cache_size=32,
        metrics_port=0,
    )
    with DkbServer(config) as server:
        yield server


class TestMetricsEndpoint:
    def test_first_scrape_shows_every_series_at_zero(self, metrics_server):
        body = scrape(metrics_server.exporter)
        for series in DERIVATION_SERIES:
            if series != "server_dkb_version":
                assert sample(body, series) == 0.0, series

    def test_scrape_after_traffic(self, metrics_server):
        host, port = metrics_server.address
        with DkbClient(host, port) as client:
            for _ in range(3):
                client.query("?- ancestor('john', X).")  # 1 miss, 2 hits
            with pytest.raises(ServerError):
                client.query("?- ancestor(")  # an error reply
            # The one session is attached here: a second connection is shed.
            with DkbClient(host, port) as shed:
                with pytest.raises(ServerError) as excinfo:
                    shed.ping()
                assert excinfo.value.code == "SERVER_BUSY"
        body = scrape(metrics_server.exporter)
        assert "# TYPE server_requests_total counter" in body
        assert "# TYPE server_request_seconds histogram" in body
        assert "# TYPE server_dkb_version gauge" in body
        for series in DERIVATION_SERIES:
            sample(body, series)
        assert sample(body, "server_requests_total") == 4
        assert sample(body, "server_errors_total") == 1
        assert sample(body, "server_busy_total") == 1
        assert sample(body, "server_cache_hits_total") == 2
        assert sample(body, "server_cache_misses_total") == 1
        assert sample(body, 'server_request_seconds_bucket{le="+Inf"}') == 4
        for gauge in ("server_admission_slots", "server_admission_max_waiters"):
            assert f"# TYPE {gauge} gauge" in body
        assert "server_window_" not in body

    def test_stats_reports_metrics_address(self, metrics_server):
        host, port = metrics_server.address
        with DkbClient(host, port) as client:
            client.query("?- ancestor('john', X).")
            stats = client.stats()["stats"]
        # No windowed view beside the registry: these keys and no others.
        assert set(stats) == {
            "protocol",
            "uptime_seconds",
            "pool",
            "metrics",
            "metrics_address",
        }
        assert list(stats["metrics_address"]) == list(
            metrics_server.exporter.address
        )
        # The shapes the perf ledger's served workloads read.
        assert {"hits", "misses"} <= set(stats["pool"]["cache"])
        assert "admitted" in stats["pool"]["admission"]
        assert stats["metrics"]["counters"]["server.requests"] >= 1


    def test_request_histogram_uses_the_request_buckets(self, metrics_server):
        histogram = metrics_server.metrics.histograms["server.request_seconds"]
        assert histogram.bounds == REQUEST_SECONDS_BUCKETS

    def test_bucket_series_reconciles_with_the_request_count(
        self, metrics_server
    ):
        host, port = metrics_server.address
        with DkbClient(host, port) as client:
            for _ in range(5):
                client.query("?- ancestor('john', X).")
            client.ping()
        body = scrape(metrics_server.exporter)
        buckets = [
            float(line.rsplit(" ", 1)[1])
            for line in body.splitlines()
            if line.startswith("server_request_seconds_bucket{")
        ]
        assert len(buckets) == len(REQUEST_SECONDS_BUCKETS) + 1
        assert buckets == sorted(buckets)
        assert buckets[-1] == sample(body, "server_request_seconds_count")
        assert buckets[-1] == sample(body, "server_requests_total") == 6

    def test_shed_connection_counts_as_busy_not_as_a_request(
        self, metrics_server
    ):
        host, port = metrics_server.address
        with DkbClient(host, port) as client:
            client.ping()
            with DkbClient(host, port) as shed:
                with pytest.raises(ServerError):
                    shed.ping()
        body = scrape(metrics_server.exporter)
        assert sample(body, "server_busy_total") == 1
        # A shed connection never reached a session: no request, no error.
        assert sample(body, "server_requests_total") == 1
        assert sample(body, "server_errors_total") == 0

    def test_version_gauge_follows_writes(self, metrics_server):
        before = sample(scrape(metrics_server.exporter), "server_dkb_version")
        host, port = metrics_server.address
        with DkbClient(host, port) as client:
            client.insert("parent", [["ann", "zoe"]])
        after = sample(scrape(metrics_server.exporter), "server_dkb_version")
        assert after == before + 1

    def test_admission_gauges_mirror_the_config(self, metrics_server):
        body = scrape(metrics_server.exporter)
        assert sample(body, "server_admission_slots") == 1
        assert sample(body, "server_admission_max_waiters") == 0
        assert sample(body, "server_admission_in_use") == 0

    def test_two_scrapes_bound_a_window(self, metrics_server):
        # What the deleted window store computed is the difference of two
        # scrapes: here, 1 miss and 2 hits between them.
        host, port = metrics_server.address
        with DkbClient(host, port) as client:
            client.query("?- ancestor('mary', X).")
            before = scrape(metrics_server.exporter)
            client.query("?- ancestor('john', X).")
            client.query("?- ancestor('john', X).")
            client.query("?- ancestor('mary', X).")
        after = scrape(metrics_server.exporter)

        def delta(series: str) -> float:
            return sample(after, series) - sample(before, series)

        assert delta("server_requests_total") == 3
        assert delta("server_cache_hits_total") == 2
        assert delta("server_cache_misses_total") == 1
        assert delta('server_request_seconds_bucket{le="+Inf"}') == 3


class TestZeroOverheadWhenDisabled:
    def test_default_server_builds_no_live_obs(self, server):
        # A server without metrics_port pays nothing: no exporter thread.
        assert server.exporter is None
        assert not any(
            thread.name == "dkb-metrics-exporter"
            for thread in threading.enumerate()
        )
        host, port = server.address
        with DkbClient(host, port) as client:
            reply = client.query("?- ancestor('john', X).")
        assert reply["count"] == 5  # mary, bob, sue, tom, ann
        stats = server.stats()
        assert "metrics_address" not in stats
