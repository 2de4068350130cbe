"""Server lifecycle edges: closing a server that never served, and a
constructor that fails after opening part of what it owns."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.server import service
from repro.server.service import DkbServer, ServerConfig


def closes_within(closeable, seconds: float = 2.0) -> bool:
    """Run ``closeable.close()`` on a daemon thread; did it return in time?"""
    closer = threading.Thread(target=closeable.close, daemon=True)
    closer.start()
    closer.join(seconds)
    return not closer.is_alive()


def exporter_threads() -> int:
    return sum(
        1
        for thread in threading.enumerate()
        if thread.name == "dkb-metrics-exporter"
    )


@pytest.fixture
def busy_port():
    """A loopback port with a live listener on it, so binding it fails."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        yield holder.getsockname()[1]


@pytest.fixture
def pools(monkeypatch):
    """Every SessionPool the service opens, and which of them were closed."""
    opened: list[service.SessionPool] = []
    closed: list[service.SessionPool] = []

    class RecordingPool(service.SessionPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

        def close(self):
            closed.append(self)
            super().close()

    monkeypatch.setattr(service, "SessionPool", RecordingPool)
    return opened, closed


def test_close_without_start_returns(dkb_path):
    server = DkbServer(ServerConfig(path=dkb_path, readers=1))
    assert closes_within(server)


def test_close_without_start_with_exporter_returns(dkb_path):
    server = DkbServer(ServerConfig(path=dkb_path, readers=1, metrics_port=0))
    assert closes_within(server)
    assert exporter_threads() == 0


def test_close_after_start_still_stops_serving(dkb_path):
    server = DkbServer(ServerConfig(path=dkb_path, readers=1)).start()
    assert closes_within(server)
    assert server._thread is None


def test_bind_failure_leaks_no_pool_and_no_thread(dkb_path, busy_port, pools):
    opened, closed = pools
    threads_before = exporter_threads()
    with pytest.raises(OSError):
        DkbServer(
            ServerConfig(
                path=dkb_path, port=busy_port, readers=1, metrics_port=0
            )
        )
    assert exporter_threads() == threads_before
    assert len(closed) == len(opened)


def test_exporter_bind_failure_closes_the_pool_and_socket(
    dkb_path, busy_port, pools, monkeypatch
):
    opened, closed = pools
    sockets: list[service._TcpServer] = []

    class RecordingTcpServer(service._TcpServer):
        def server_close(self):
            sockets.append(self)
            super().server_close()

    monkeypatch.setattr(service, "_TcpServer", RecordingTcpServer)
    with pytest.raises(OSError):
        DkbServer(
            ServerConfig(path=dkb_path, readers=1, metrics_port=busy_port)
        )
    assert opened and len(closed) == len(opened)
    assert len(sockets) == 1


def port_is_free(host: str, port: int) -> bool:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind((host, port))
        except OSError:
            return False
        return True


def test_close_twice_returns(dkb_path):
    unstarted = DkbServer(ServerConfig(path=dkb_path, readers=1))
    unstarted.close()
    assert closes_within(unstarted)
    started = DkbServer(ServerConfig(path=dkb_path, readers=1)).start()
    started.close()
    assert closes_within(started)


def test_start_twice_raises(dkb_path):
    with DkbServer(ServerConfig(path=dkb_path, readers=1)) as server:
        with pytest.raises(RuntimeError):
            server.start()


def test_serve_forever_then_close_returns(dkb_path):
    server = DkbServer(ServerConfig(path=dkb_path, readers=1))
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    deadline = time.monotonic() + 2.0
    while not server._serving and time.monotonic() < deadline:
        time.sleep(0.01)
    assert closes_within(server)
    serving.join(2.0)
    assert not serving.is_alive()


def test_close_without_start_releases_the_port(dkb_path):
    server = DkbServer(ServerConfig(path=dkb_path, readers=1, metrics_port=0))
    address, metrics_address = server.address, server.exporter.address
    assert not port_is_free(*address)
    assert closes_within(server)
    assert port_is_free(*address)
    assert port_is_free(*metrics_address)


def test_context_manager_closes_on_error(dkb_path, pools):
    opened, closed = pools
    with pytest.raises(ValueError):
        with DkbServer(ServerConfig(path=dkb_path, readers=1)):
            raise ValueError("boom")
    assert opened and closed == opened


def test_bind_failure_without_exporter_closes_no_pool_it_never_opened(
    dkb_path, busy_port, pools
):
    # The socket is bound first: a busy port fails before any pool opens.
    opened, closed = pools
    with pytest.raises(OSError):
        DkbServer(ServerConfig(path=dkb_path, port=busy_port, readers=1))
    assert opened == [] and closed == []
