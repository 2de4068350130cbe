"""The load generator's statistics helpers."""

from __future__ import annotations

import pytest

from repro.server import DkbClient
from repro.server.loadgen import (
    LoadgenReport,
    parse_target,
    percentile,
    run_loadgen,
)
from repro.server.service import DkbServer, ServerConfig


class TestPercentileNearestRank:
    """Regression tests for the nearest-rank definition.

    The old implementation rounded ``fraction * (n - 1)``, which is neither
    nearest-rank nor linear interpolation: on two samples every fraction
    above 0.5 returned the max (p50 of [1, 2] came back 2), and on large
    inputs the returned rank was off by one around every rounding boundary.
    Nearest-rank is ``ceil(fraction * n)``, 1-based.
    """

    def test_empty_returns_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_sample_every_fraction(self):
        for fraction in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert percentile([7.0], fraction) == 7.0

    def test_two_samples(self):
        samples = [1.0, 2.0]
        # ceil(0.5 * 2) = 1 -> the first ordered sample, not the max.
        assert percentile(samples, 0.5) == 1.0
        assert percentile(samples, 0.51) == 2.0
        assert percentile(samples, 1.0) == 2.0
        assert percentile(samples, 0.0) == 1.0

    def test_ten_samples(self):
        samples = list(range(1, 11))  # 1..10, already its own ranks
        assert percentile(samples, 0.5) == 5  # ceil(5) = rank 5
        assert percentile(samples, 0.55) == 6  # ceil(5.5) = rank 6
        assert percentile(samples, 0.9) == 9  # ceil(9) = rank 9
        assert percentile(samples, 0.95) == 10
        assert percentile(samples, 0.99) == 10
        assert percentile(samples, 1.0) == 10

    def test_hundred_samples(self):
        samples = list(range(1, 101))  # value == 1-based rank
        assert percentile(samples, 0.50) == 50
        assert percentile(samples, 0.90) == 90
        assert percentile(samples, 0.95) == 95
        assert percentile(samples, 0.99) == 99
        assert percentile(samples, 0.999) == 100
        assert percentile(samples, 1.0) == 100

    def test_order_insensitive(self):
        shuffled = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(shuffled, 0.6) == 3.0  # ceil(3) = rank 3

    @pytest.mark.parametrize("size", [1, 2, 10, 100])
    def test_always_returns_a_sample(self, size):
        samples = [float(i) for i in range(size)]
        for fraction in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            assert percentile(samples, fraction) in samples

    @pytest.mark.parametrize("size", [1, 2, 10, 100])
    def test_p100_is_the_maximum(self, size):
        samples = [float(i) for i in range(size)]
        assert percentile(samples, 1.0) == max(samples)


class TestParseTarget:
    def test_tuple_passes_through_normalized(self):
        assert parse_target(("localhost", 7407)) == ("localhost", 7407)
        assert parse_target(("127.0.0.1", "7408")) == ("127.0.0.1", 7408)

    def test_host_port_string(self):
        assert parse_target("db.internal:7407") == ("db.internal", 7407)
        # rpartition keeps IPv6-ish colons in the host part.
        assert parse_target("::1:7407") == ("::1", 7407)

    @pytest.mark.parametrize("bad", ["no-port", ":7407", "host:", "host:abc"])
    def test_malformed_strings_raise(self, bad):
        with pytest.raises(ValueError):
            parse_target(bad)


class TestRunLoadgenArguments:
    def test_queries_required(self):
        with pytest.raises(ValueError):
            run_loadgen(host="127.0.0.1", port=1, queries=[])

    def test_targets_exclude_host_port(self):
        with pytest.raises(ValueError):
            run_loadgen(
                host="127.0.0.1",
                port=1,
                queries=["?- p(X)."],
                targets=[("127.0.0.1", 2)],
            )

    def test_host_and_port_required_without_targets(self):
        with pytest.raises(ValueError):
            run_loadgen(queries=["?- p(X)."])

    def test_clients_must_be_positive(self):
        with pytest.raises(ValueError):
            run_loadgen(
                host="127.0.0.1", port=1, queries=["?- p(X)."], clients=0
            )


class TestLoadgenReport:
    def test_empty_report_hit_fraction_is_zero(self):
        report = LoadgenReport(
            clients=1, duration_seconds=0.0, requests=0, errors=0, busy=0,
            cached=0, throughput=0.0,
        )
        assert report.cache_hit_fraction == 0.0

    def test_to_dict_shape(self):
        report = LoadgenReport(
            clients=2, duration_seconds=1.0, requests=4, errors=0, busy=1,
            cached=3, throughput=4.0, latency_ms={"p50": 1.0},
            by_target={"127.0.0.1:1": 4},
        )
        assert report.to_dict() == {
            "clients": 2,
            "duration_seconds": 1.0,
            "requests": 4,
            "errors": 0,
            "busy": 1,
            "cached": 3,
            "cache_hit_fraction": 0.75,
            "throughput_rps": 4.0,
            "latency_ms": {"p50": 1.0},
            "by_target": {"127.0.0.1:1": 4},
        }


def test_loadgen_totals_match_the_server_registry(tmp_path):
    """The client-side report and the server's counters agree."""
    config = ServerConfig(path=str(tmp_path / "lgr.sqlite"), readers=2)
    with DkbServer(config) as server:
        host, port = server.address
        with DkbClient(host, port) as client:
            client.define("p(1).")
        before = server.metrics.snapshot()["counters"]
        report = run_loadgen(
            host,
            port,
            queries=["?- p(X).", {"q": "?- p(X).", "use_cache": False}],
            clients=2,
            duration=0.4,
            think_time=0.0,
            use_processes=False,
        )
        after = server.metrics.snapshot()["counters"]
    assert report.errors == 0 and report.busy == 0
    assert report.requests > 0
    served = after["server.requests"] - before.get("server.requests", 0)
    assert served == report.requests
    hits = after.get("server.cache.hits", 0) - before.get("server.cache.hits", 0)
    assert hits == report.cached
    latency = report.latency_ms
    assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]


def test_multi_target_round_robin_spreads_clients(tmp_path):
    """Client ``i`` drives ``targets[i % n]``; ``by_target`` shows the split."""
    servers = []
    try:
        for index in range(2):
            config = ServerConfig(
                path=str(tmp_path / f"lg{index}.sqlite"), readers=2
            )
            servers.append(DkbServer(config).start())
        for server in servers:
            host, port = server.address
            with DkbClient(host, port) as client:
                client.define("p(1).")
        report = run_loadgen(
            queries=["?- p(X)."],
            clients=4,
            duration=0.4,
            think_time=0.0,
            use_processes=False,
            targets=[server.address for server in servers],
        )
    finally:
        for server in servers:
            server.close()
    assert report.errors == 0
    assert report.requests > 0
    # Both targets served someone: 4 clients round-robin over 2 addresses.
    expected = {f"{host}:{port}" for host, port in (s.address for s in servers)}
    assert set(report.by_target) == expected
    assert sum(report.by_target.values()) == report.requests
