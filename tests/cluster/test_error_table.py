"""One error table: a failure of each class is answered and recorded alike
by both roles of the protocol core, a single server and the cluster router.

The router's backend ``TIMEOUT`` is covered in ``test_router_transport.py``.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.server import DkbClient, DkbServer, ServerConfig, ServerError


@pytest.fixture(params=["server", "router"])
def roles(request, tmp_path, make_cluster):
    """(the role under test, the shard server behind it); one reader each
    and no wait queue, so a second connection to the shard is refused."""
    if request.param == "server":
        config = ServerConfig(
            path=str(tmp_path / "one.sqlite"), readers=1, max_waiters=0
        )
        with DkbServer(config) as server:
            yield server, server
    else:
        cluster = make_cluster(readers=1, max_waiters=0)
        yield cluster.router, cluster.shards[0].primary


def send_line(address, line: bytes) -> str:
    """The error code of the reply to one raw request line."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(line)
        reply = json.loads(sock.makefile("rb").readline())
    assert reply["ok"] is False
    return reply["error"]["code"]


def recorded(role) -> tuple[float, int, float]:
    """The role's error count, request-time observations and busy count."""
    histogram = role.metrics.histograms.get(f"{role.kind}.request_seconds")
    return (
        role.metrics.counter(f"{role.kind}.errors").value,
        histogram.count if histogram is not None else 0,
        role.metrics.counter(f"{role.kind}.busy").value,
    )


@pytest.mark.parametrize("code", ["PARSE_ERROR", "BAD_REQUEST", "SERVER_BUSY"])
def test_one_failure_of_each_class(roles, code):
    role, shard = roles
    if code == "SERVER_BUSY":
        # Hold the shard's only reader session, then connect past it.
        with DkbClient(*shard.address) as holder:
            holder.ping()
            before = recorded(role)
            with DkbClient(*role.address) as client:
                with pytest.raises(ServerError) as refused:
                    client.ping()
            answered = refused.value.code
    else:
        before = recorded(role)
        line = b"{not json\n" if code == "PARSE_ERROR" else b'{"op": "nop", "id": 1}\n'
        answered = send_line(role.address, line)
    assert answered == code
    errors, observed, busy = (
        after - then for after, then in zip(recorded(role), before)
    )
    if role is shard and code == "SERVER_BUSY":
        # Refused at connect: counted as shed, not as a request.
        assert (errors, observed, busy) == (0, 0, 1)
    else:
        assert (errors, observed, busy) == (1, 1, 0)
    # The role serves again once the failure is gone: for the router, the
    # backend connection the shard refused was not kept for reuse.
    deadline = time.monotonic() + 5.0
    while shard.pool.admission.snapshot()["in_use"] and time.monotonic() < deadline:
        time.sleep(0.01)  # the closed connections' sessions are released
    with DkbClient(*role.address) as client:
        assert client.ping()["ok"] is True
