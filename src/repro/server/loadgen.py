"""A closed-loop load generator for the query server.

Each simulated client is a closed loop in its own worker (a forked process
when the platform allows, else a thread): connect, issue a query, record
the latency, *think* for ``think_time`` seconds, repeat, and reconnect
every ``reconnect_every`` requests so connection slots recycle.  With the
server's per-connection session checkout this is the textbook interactive
workload: a single-session server serves roughly ``1 / (S + Z)`` requests
per second (service time S, think time Z), and adding reader sessions
scales throughput by overlapping the clients' think time — the effect the
throughput-scaling benchmark measures.

``SERVER_BUSY`` / admission-timeout replies are counted separately from
errors: shedding under overload is the server *working as designed*.
"""

from __future__ import annotations

import math
import multiprocessing
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from .client import DkbClient, ServerError

QuerySpec = Union[str, dict]
#: One loadgen target: ``(host, port)`` or a ``"host:port"`` string.
Target = Union[tuple[str, int], str]

_SHED_CODES = frozenset({"SERVER_BUSY", "TIMEOUT", "SHUTTING_DOWN"})


def parse_target(target: Target) -> tuple[str, int]:
    """Normalize one target address to ``(host, port)``."""
    if isinstance(target, str):
        host, _, port = target.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"target must look like host:port, got {target!r}")
        return host, int(port)
    host, port = target
    return str(host), int(port)


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The ``fraction`` (0..1) percentile of ``samples`` (nearest-rank).

    Nearest-rank: the smallest ordered sample whose cumulative share of the
    data is at least ``fraction`` — rank ``ceil(fraction * n)``, 1-based.
    This always returns an actual sample (no interpolation), and the p100
    of any non-empty sequence is its maximum.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = math.ceil(fraction * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


@dataclass
class LoadgenReport:
    """Aggregate outcome of one load-generation run."""

    clients: int
    duration_seconds: float
    requests: int
    errors: int
    busy: int
    cached: int
    throughput: float
    latency_ms: dict[str, float] = field(default_factory=dict)
    #: successful requests per target address ("host:port"), for runs that
    #: spread clients over several targets (router vs direct-shard A/B).
    by_target: dict[str, int] = field(default_factory=dict)

    @property
    def cache_hit_fraction(self) -> float:
        """Fraction of successful requests answered from the result cache."""
        return self.cached / self.requests if self.requests else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form for bench reports and the CLI."""
        return {
            "clients": self.clients,
            "duration_seconds": self.duration_seconds,
            "requests": self.requests,
            "errors": self.errors,
            "busy": self.busy,
            "cached": self.cached,
            "cache_hit_fraction": self.cache_hit_fraction,
            "throughput_rps": self.throughput,
            "latency_ms": dict(self.latency_ms),
            "by_target": dict(self.by_target),
        }


def _normalize(spec: QuerySpec) -> dict[str, Any]:
    return {"q": spec} if isinstance(spec, str) else dict(spec)


def _client_loop(
    host: str,
    port: int,
    worker_id: int,
    duration: float,
    think_time: float,
    queries: Sequence[dict[str, Any]],
    reconnect_every: int,
    connect_timeout: float,
    out: Any,
) -> None:
    """One closed-loop client; must stay module-level for process fork/spawn."""
    deadline = time.monotonic() + duration
    latencies: list[float] = []
    requests = errors = busy = cached = 0
    position = worker_id  # stagger which query each client starts on
    while time.monotonic() < deadline:
        try:
            with DkbClient(host, port, timeout=connect_timeout) as client:
                for _ in range(reconnect_every):
                    if time.monotonic() >= deadline:
                        break
                    spec = queries[position % len(queries)]
                    position += 1
                    started = time.perf_counter()
                    reply = client.query(**spec)
                    elapsed = time.perf_counter() - started
                    latencies.append(elapsed)
                    requests += 1
                    if reply.get("cached"):
                        cached += 1
                    if think_time:
                        time.sleep(think_time)
        except ServerError as error:
            if error.code in _SHED_CODES:
                busy += 1
                time.sleep(0.005)
            else:
                errors += 1
        except (ConnectionError, OSError):
            errors += 1
            time.sleep(0.005)
    out.put(
        {
            "requests": requests,
            "errors": errors,
            "busy": busy,
            "cached": cached,
            "latencies": latencies,
            "target": f"{host}:{port}",
        }
    )


def run_loadgen(
    host: Optional[str] = None,
    port: Optional[int] = None,
    queries: Sequence[QuerySpec] = (),
    clients: int = 8,
    duration: float = 5.0,
    think_time: float = 0.02,
    reconnect_every: int = 5,
    connect_timeout: float = 30.0,
    use_processes: Optional[bool] = None,
    targets: Optional[Sequence[Target]] = None,
) -> LoadgenReport:
    """Drive one or more servers with ``clients`` closed-loop clients.

    Args:
        host, port: the server's bound address (single-target form).
        queries: the query mix, round-robined per client (strings or
            ``{"q": ..., "bindings": ...}`` dicts).
        clients: number of concurrent simulated clients.
        duration: wall-clock seconds each client keeps looping.
        think_time: seconds a client idles between requests.
        reconnect_every: requests per connection before reconnecting, so
            session slots recycle across clients.
        use_processes: fork one process per client (default: yes when the
            platform supports ``fork``; else threads).
        targets: several addresses instead of ``host``/``port`` — client
            ``i`` drives ``targets[i % len(targets)]`` for its whole run
            (per-client round-robin assignment), so one run can spread an
            identical population over a router and its shards for an A/B
            comparison.  ``LoadgenReport.by_target`` breaks the successful
            requests down per address.

    Returns:
        The aggregated :class:`LoadgenReport`.
    """
    if not queries:
        raise ValueError("queries must be non-empty")
    if clients <= 0:
        raise ValueError(f"clients must be positive, got {clients}")
    if targets:
        if host is not None or port is not None:
            raise ValueError("pass either host/port or targets, not both")
        addresses = [parse_target(target) for target in targets]
    else:
        if host is None or port is None:
            raise ValueError("host and port are required without targets")
        addresses = [(host, int(port))]
    normalized = [_normalize(spec) for spec in queries]
    if use_processes is None:
        use_processes = "fork" in multiprocessing.get_all_start_methods()

    def worker_args(index: int) -> tuple:
        target_host, target_port = addresses[index % len(addresses)]
        return (
            target_host, target_port, index, duration, think_time,
            normalized, reconnect_every, connect_timeout, out,
        )

    out: Any
    workers: list[Any]
    if use_processes:
        context = multiprocessing.get_context("fork")
        out = context.Queue()
        workers = [
            context.Process(
                target=_client_loop, args=worker_args(index), daemon=True
            )
            for index in range(clients)
        ]
    else:
        out = queue_module.Queue()
        workers = [
            threading.Thread(
                target=_client_loop, args=worker_args(index), daemon=True
            )
            for index in range(clients)
        ]

    started = time.perf_counter()
    for worker in workers:
        worker.start()
    results = [out.get(timeout=duration + 60.0) for _ in workers]
    for worker in workers:
        worker.join(timeout=10.0)
    elapsed = time.perf_counter() - started

    latencies = [sample for result in results for sample in result["latencies"]]
    requests = sum(result["requests"] for result in results)
    by_target: dict[str, int] = {}
    for result in results:
        address = result["target"]
        by_target[address] = by_target.get(address, 0) + result["requests"]
    return LoadgenReport(
        clients=clients,
        duration_seconds=elapsed,
        requests=requests,
        errors=sum(result["errors"] for result in results),
        busy=sum(result["busy"] for result in results),
        cached=sum(result["cached"] for result in results),
        throughput=requests / elapsed if elapsed > 0 else 0.0,
        latency_ms={
            "mean": (sum(latencies) / len(latencies) * 1000.0)
            if latencies
            else 0.0,
            "p50": percentile(latencies, 0.50) * 1000.0,
            "p95": percentile(latencies, 0.95) * 1000.0,
            "p99": percentile(latencies, 0.99) * 1000.0,
        },
        by_target=by_target,
    )
