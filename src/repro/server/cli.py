"""``python -m repro serve`` / ``bench-serve`` — the query-server CLIs.

``serve`` boots the concurrent query server on a D/KB file (optionally
seeding a demo ancestor workload first) and runs until interrupted.
``bench-serve`` runs the two server experiment specs in-process — throughput
scaling across reader-session counts and the cold/warm cache A/B — prints
the tables, optionally appends their rows to ``BENCH_*.jsonl`` reports, and
exits non-zero when the run shows an error row, protocol errors or a cold
cache, so CI can gate on it.

Heavyweight imports happen inside the entry points, keeping
``python -m repro``'s startup light.
"""

from __future__ import annotations

import argparse
import signal
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def sigterm_interrupts() -> Iterator[None]:
    """Within the block, SIGTERM (``kill``, a service manager) raises
    :class:`KeyboardInterrupt` like Ctrl-C, so the caller's cleanup runs;
    the previous handler is restored on exit.  Off the main thread, where
    no signal handler can run, the block runs unchanged."""
    try:
        previous = signal.signal(signal.SIGTERM, _interrupt)
    except ValueError:
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _interrupt(signum: int, frame: object) -> None:
    raise KeyboardInterrupt


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve a D/KB file to concurrent clients over the "
        "line-oriented JSON protocol.",
    )
    parser.add_argument("db", help="SQLite path for the shared D/KB file")
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7407, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--readers",
        type=int,
        default=4,
        help="reader sessions = max concurrent connections (default: 4)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=256,
        help="result-cache capacity in entries; 0 disables (default: 256)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="per-query evaluation budget in seconds (default: 30)",
    )
    parser.add_argument(
        "--demo-depth",
        type=int,
        default=0,
        metavar="DEPTH",
        help="seed the ancestor rules plus a full binary tree of DEPTH "
        "levels before serving (useful for trying the server out)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="open pooled sessions with structured tracing enabled",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve Prometheus /metrics on this side port (0 = ephemeral; "
        "omit for no exporter and zero serving overhead)",
    )
    return parser


def serve_main(argv: "list[str] | None" = None) -> int:
    from ..server.service import DkbServer, ServerConfig

    arguments = build_serve_parser().parse_args(argv)
    if arguments.demo_depth:
        from ..workloads.served import seed_dkb

        seed_dkb(arguments.db, arguments.demo_depth)
        print(
            f"seeded ancestor demo D/KB (tree depth {arguments.demo_depth}) "
            f"into {arguments.db}"
        )
    config = ServerConfig(
        path=arguments.db,
        host=arguments.host,
        port=arguments.port,
        readers=arguments.readers,
        cache_size=arguments.cache_size,
        request_timeout=arguments.request_timeout,
        trace=arguments.trace,
        metrics_port=arguments.metrics_port,
    )
    server = DkbServer(config)
    # Install the SIGTERM handler before announcing the address: a client
    # that reads the announcement may stop the server at once.
    with sigterm_interrupts():
        try:
            host, port = server.address
            print(
                f"serving {arguments.db} on {host}:{port} "
                f"({config.readers} reader sessions, cache={config.cache_size})"
            )
            if server.exporter is not None:
                mhost, mport = server.exporter.address
                print(f"metrics: http://{mhost}:{mport}/metrics")
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            server.close()
    return 0


def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench-serve",
        description="Run the server benchmarks: throughput scaling across "
        "reader counts and the cold/warm result-cache A/B.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small tree, short burst (for smoke tests and CI)",
    )
    parser.add_argument(
        "--report",
        metavar="DIR",
        default=None,
        help="append BENCH_*.jsonl reports into DIR",
    )
    parser.add_argument(
        "--clients", type=int, default=8, help="closed-loop clients (default: 8)"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="seconds per measurement (default: 4, quick: 2)",
    )
    return parser


def bench_serve_main(argv: "list[str] | None" = None) -> int:
    import os

    from ..bench import append_jsonl, report, run
    from ..bench.specs import SERVER_CACHE, SERVER_SCALING

    arguments = build_bench_parser().parse_args(argv)
    scaling = run(
        SERVER_SCALING,
        depth=6 if arguments.quick else 7,
        clients=arguments.clients,
        duration=arguments.duration or (2.0 if arguments.quick else 4.0),
    )
    cache = run(SERVER_CACHE, depth=6 if arguments.quick else 8)
    for spec, rows in ((SERVER_SCALING, scaling), (SERVER_CACHE, cache)):
        print(report(spec, rows))
        print()
        if arguments.report:
            print(append_jsonl(os.path.join(arguments.report, f"BENCH_{spec.name}.jsonl"), rows))

    failures = [f"{row['spec']}: {row['error']}" for row in scaling + cache if row["error"]]
    if any(row["counts"].get("errors") for row in scaling):
        failures.append("protocol errors during the scaling run")
    if all(not row["counts"].get("hit_fraction") for row in scaling):
        failures.append("result cache never hit during the scaling run")
    if not any(row["counts"].get("hits") for row in cache):
        failures.append("cache A/B recorded no hits")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(serve_main())
