"""Router lifecycle edges: closing a router that never served, and an
exporter bind failure after the router's own socket is bound."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.cluster.partition import Partitioner
from repro.cluster.router import ClusterRouter, RouterConfig
from repro.cluster.shard import ShardAddresses
from repro.km.partition import PartitionSpec
from repro.server import service


def router_config(**overrides) -> RouterConfig:
    """One shard whose address is never dialled by these tests."""
    return RouterConfig(
        partitioner=Partitioner(PartitionSpec(shards=1)),
        shards=(ShardAddresses(0, ("127.0.0.1", 1), readers=1),),
        **overrides,
    )


def closes_within(closeable, seconds: float = 2.0) -> bool:
    closer = threading.Thread(target=closeable.close, daemon=True)
    closer.start()
    closer.join(seconds)
    return not closer.is_alive()


def test_close_without_start_returns():
    assert closes_within(ClusterRouter(router_config()))


def test_close_without_start_with_exporter_returns():
    assert closes_within(ClusterRouter(router_config(metrics_port=0)))


def test_close_after_start_still_stops_serving():
    router = ClusterRouter(router_config()).start()
    assert closes_within(router)


def test_exporter_bind_failure_closes_the_router_socket(monkeypatch):
    sockets: list[service._TcpServer] = []

    class RecordingTcpServer(service._TcpServer):
        def server_close(self):
            sockets.append(self)
            super().server_close()

    monkeypatch.setattr(service, "_TcpServer", RecordingTcpServer)
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        with pytest.raises(OSError):
            ClusterRouter(router_config(metrics_port=holder.getsockname()[1]))
    assert len(sockets) == 1


def test_close_twice_returns():
    unstarted = ClusterRouter(router_config())
    unstarted.close()
    assert closes_within(unstarted)
    started = ClusterRouter(router_config()).start()
    started.close()
    assert closes_within(started)


def test_start_twice_raises():
    with ClusterRouter(router_config()) as router:
        with pytest.raises(RuntimeError):
            router.start()


def test_serve_forever_then_close_returns():
    router = ClusterRouter(router_config())
    serving = threading.Thread(target=router.serve_forever, daemon=True)
    serving.start()
    deadline = time.monotonic() + 2.0
    while not router._serving and time.monotonic() < deadline:
        time.sleep(0.01)
    assert closes_within(router)
    serving.join(2.0)
    assert not serving.is_alive()


def test_close_without_start_releases_both_ports():
    router = ClusterRouter(router_config(metrics_port=0))
    addresses = [router.address, router.exporter.address]
    assert closes_within(router)
    for host, port in addresses:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind((host, port))
