"""``python -m repro serve``: its flags, and a server closed on every exit."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.server import cli, service
from repro.server.pool import SessionPool


def test_serve_parser_defaults():
    arguments = cli.build_serve_parser().parse_args(["dkb.sqlite"])
    assert arguments.db == "dkb.sqlite"
    assert (arguments.host, arguments.port) == ("127.0.0.1", 7407)
    assert arguments.readers == 4 and arguments.cache_size == 256
    assert arguments.request_timeout == 30.0
    assert arguments.metrics_port is None and not arguments.trace


def test_serve_parser_reads_every_flag():
    arguments = cli.build_serve_parser().parse_args(
        [
            "dkb.sqlite", "--port", "0", "--readers", "2", "--cache-size", "0",
            "--request-timeout", "1.5", "--demo-depth", "3", "--trace",
            "--metrics-port", "0",
        ]
    )
    assert arguments.port == 0 and arguments.readers == 2
    assert arguments.cache_size == 0 and arguments.request_timeout == 1.5
    assert arguments.demo_depth == 3 and arguments.trace
    assert arguments.metrics_port == 0


@pytest.fixture
def servers(monkeypatch):
    """Every DkbServer ``serve_main`` builds, with a patched serve loop."""
    built: list[service.DkbServer] = []

    class RecordingServer(service.DkbServer):
        def __init__(self, config):
            super().__init__(config)
            built.append(self)

    monkeypatch.setattr(service, "DkbServer", RecordingServer)
    return built


def exporter_threads() -> int:
    return sum(
        1
        for thread in threading.enumerate()
        if thread.name == "dkb-metrics-exporter"
    )


def test_interrupt_closes_the_server(tmp_path, servers, monkeypatch, capsys):
    def interrupted(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(service.DkbServer, "serve_forever", interrupted)
    path = str(tmp_path / "cli.sqlite")
    with SessionPool(path, readers=1):
        pass
    code = cli.serve_main([path, "--port", "0", "--metrics-port", "0"])
    assert code == 0
    (server,) = servers
    assert server.pool._closed
    assert exporter_threads() == 0
    out = capsys.readouterr().out
    assert "metrics: http://" in out and "shutting down" in out


def test_failure_before_serving_closes_the_server(tmp_path, servers, monkeypatch):
    # The serve loop never starts, so close() must not wait for it.
    def broken(self):
        raise RuntimeError("boom")

    monkeypatch.setattr(service.DkbServer, "serve_forever", broken)
    path = str(tmp_path / "cli.sqlite")
    with SessionPool(path, readers=1):
        pass
    outcome: list[BaseException] = []

    def run():
        try:
            cli.serve_main([path, "--port", "0", "--readers", "1"])
        except RuntimeError as error:
            outcome.append(error)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(5.0)
    assert not runner.is_alive()
    assert [str(error) for error in outcome] == ["boom"]
    (server,) = servers
    assert server.pool._closed


def test_demo_depth_seeds_the_dkb(tmp_path, servers, monkeypatch):
    def interrupted(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(service.DkbServer, "serve_forever", interrupted)
    path = str(tmp_path / "demo.sqlite")
    assert cli.serve_main([path, "--port", "0", "--demo-depth", "2"]) == 0
    assert os.path.exists(path)
    with SessionPool(path, readers=1) as pool:
        assert pool.query("?- ancestor(X, Y).").rows


def test_sigterm_closes_the_server_and_exits_zero(tmp_path):
    # ``kill`` or a service manager stops the server like Ctrl-C: the
    # cleanup runs and the process exits 0 instead of dying on the signal.
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": "1"}
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(tmp_path / "dkb.sqlite"),
         "--port", "0", "--readers", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        first = process.stdout.readline()
        assert first.startswith("serving"), first
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        assert "shutting down" in process.stdout.read()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
