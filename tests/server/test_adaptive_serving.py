"""The adaptive-serving integration test: breach -> escalate -> recover.

Deterministic by construction: the watchdog runs with ``auto_start=False``
and the server's time-series store gets a fake clock, so the test seals
windows of synthetic latencies and ticks the watchdog itself — no sleeps,
no background threads, no scheduler in the loop.
"""

from __future__ import annotations

import pytest

from repro.server.client import DkbClient
from repro.server.service import DkbServer, ServerConfig, WatchdogConfig


class FakeClock:
    def __init__(self, now: float) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def adaptive_server(dkb_path):
    config = ServerConfig(
        path=dkb_path,
        readers=2,
        cache_size=32,
        max_waiters=16,
        watchdog=WatchdogConfig(
            window_seconds=1.0,
            p95_ms=100.0,
            breach_windows=2,
            recover_windows=2,
            alpha=1.0,  # no smoothing: transitions at exactly the streaks
            min_requests=1,
            tighten_waiters=2,
            auto_start=False,
        ),
    )
    with DkbServer(config) as server:
        yield server


@pytest.fixture
def clock(adaptive_server) -> FakeClock:
    """Swap the store's clock for a fake anchored at its real epoch."""
    store = adaptive_server.timeseries
    fake = FakeClock(store._epoch)
    store.clock = fake
    return fake


def seal(server, clock, latency_seconds, count=4):
    """One window of synthetic request spans, sealed by advancing time."""
    for _ in range(count):
        server.timeseries.record_request(latency_seconds)
    clock.advance(server.timeseries.window_seconds)


class TestAdaptiveCycle:
    def test_breach_escalates_within_two_windows(
        self, adaptive_server, clock
    ):
        server = adaptive_server
        seal(server, clock, 0.5)
        assert server.watchdog.tick() == []
        seal(server, clock, 0.5)
        events = server.watchdog.tick()
        assert [event.kind for event in events] == ["breach"]
        assert events[0].actions == ("escalate_tracing", "tighten_admission")
        # The knobs actually moved: tracing wanted, admission queue tightened.
        assert server.pool.tracing_wanted()
        assert server.pool.admission.snapshot()["max_waiters"] == 2
        assert server.watchdog.breached_rules() == ["p95_latency"]

    def test_serving_continues_while_escalated(self, adaptive_server, clock):
        server = adaptive_server
        for _ in range(2):
            seal(server, clock, 0.5)
            server.watchdog.tick()
        host, port = server.address
        with DkbClient(host, port) as client:
            reply = client.query("?- ancestor('john', Y).")
            assert reply["count"] == 5
            explicit = client.query(
                "?- ancestor('john', Y).", optimize=False,
                use_cache=False,
            )
            assert explicit["count"] == 5

    def test_recovery_restores_steady_state(self, adaptive_server, clock):
        server = adaptive_server
        for _ in range(2):
            seal(server, clock, 0.5)
            server.watchdog.tick()
        assert server.pool.tracing_wanted()
        seal(server, clock, 0.001)
        assert server.watchdog.tick() == []  # hysteresis: not yet
        seal(server, clock, 0.001)
        events = server.watchdog.tick()
        assert [event.kind for event in events] == ["recover"]
        assert events[0].actions == ("tighten_admission", "escalate_tracing")
        assert not server.pool.tracing_wanted()
        assert server.pool.admission.snapshot()["max_waiters"] == 16
        assert server.watchdog.breached_rules() == []

    def test_close_reverts_mid_breach(self, dkb_path):
        config = ServerConfig(
            path=dkb_path,
            readers=1,
            watchdog=WatchdogConfig(
                window_seconds=1.0,
                p95_ms=100.0,
                alpha=1.0,
                auto_start=False,
            ),
        )
        server = DkbServer(config).start()
        try:
            store = server.timeseries
            fake = FakeClock(store._epoch)
            store.clock = fake
            for _ in range(2):
                seal(server, fake, 0.5)
                server.watchdog.tick()
            assert server.pool.tracing_wanted()
            assert server.pool.admission.snapshot()["max_waiters"] == 2
        finally:
            server.close()
        assert not server.pool.tracing_wanted()
        assert server.pool.admission.snapshot()["max_waiters"] == 16


class TestRecordSpan:
    def test_shed_replies_count_as_shed_not_error(
        self, adaptive_server, clock
    ):
        server = adaptive_server
        server.record_span(
            {"ok": False, "error": {"code": "SERVER_BUSY"}}, 0.001
        )
        server.record_span(
            {"ok": False, "error": {"code": "EVALUATION_ERROR"}}, 0.001
        )
        server.record_span({"ok": True, "cached": True, "version": 3}, 0.001)
        clock.advance(1.0)
        window = server.timeseries.latest()
        assert window.shed == 1
        assert window.errors == 1
        assert window.requests == 2  # shed requests never *finished*
        assert window.cache_hits == 1

    def test_real_traffic_lands_in_the_store(self, adaptive_server, clock):
        server = adaptive_server
        host, port = server.address
        with DkbClient(host, port) as client:
            for _ in range(3):
                client.query("?- ancestor('john', Y).")
        clock.advance(1.0)
        window = server.timeseries.latest()
        assert window.requests == 3
        assert window.cache_hits >= 1  # repeat query hits the result cache


class TestRequestDefaults:
    def test_defaulted_requests_use_the_library_defaults(self, adaptive_server):
        host, port = adaptive_server.address
        with DkbClient(host, port) as client:
            first = client.query("?- ancestor('john', Y).")
            repeat = client.query("?- ancestor('john', Y).")
            explicit = client.query("?- ancestor('john', Y).", use_cache=False)
        assert first["cached"] is False and repeat["cached"] is True
        assert explicit["cached"] is False
        assert first["rows"] == repeat["rows"] == explicit["rows"]
