"""``python -m repro serve`` / ``bench-serve`` — the query-server CLIs.

``serve`` boots the concurrent query server on a D/KB file (optionally
seeding a demo ancestor workload first) and runs until interrupted.
``bench-serve`` runs the two server benchmarks in-process — throughput
scaling across reader-session counts and the cold/warm cache A/B — prints
the tables, optionally writes ``BENCH_*.json`` artifacts, and exits
non-zero when the run shows protocol errors or a cold cache, so CI can
gate on it.

Heavyweight imports happen inside the entry points, keeping
``python -m repro``'s startup light.
"""

from __future__ import annotations

import argparse


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
    watchdog = parser.add_argument_group("SLO watchdog")
    watchdog.add_argument(
        "--watchdog",
        action="store_true",
        help="run the SLO watchdog: on breach escalate tracing and tighten "
        "admission — both reverted on recovery",
    )
    watchdog.add_argument(
        "--slo-p95-ms",
        type=float,
        default=250.0,
        metavar="MS",
        help="latency SLO: breach when windowed p95 exceeds MS "
        "(default: 250)",
    )
    watchdog.add_argument(
        "--slo-cache-hit-rate",
        type=float,
        default=None,
        metavar="FRACTION",
        help="cache SLO: breach when the windowed hit rate falls below "
        "FRACTION (default: off)",
    )
    watchdog.add_argument(
        "--slo-window",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="time-series window width in seconds (default: 5)",
    )
    return parser


def serve_main(argv: "list[str] | None" = None) -> int:
    from ..server.service import DkbServer, ServerConfig, WatchdogConfig

    arguments = build_serve_parser().parse_args(argv)
    if arguments.demo_depth:
        from ..bench.server import _seed_dkb

        _seed_dkb(arguments.db, arguments.demo_depth)
        print(
            f"seeded ancestor demo D/KB (tree depth {arguments.demo_depth}) "
            f"into {arguments.db}"
        )
    watchdog = None
    if arguments.watchdog:
        watchdog = WatchdogConfig(
            window_seconds=arguments.slo_window,
            p95_ms=arguments.slo_p95_ms,
            cache_hit_rate=arguments.slo_cache_hit_rate,
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
        watchdog=watchdog,
    )
    server = DkbServer(config)
    host, port = server.address
    print(
        f"serving {arguments.db} on {host}:{port} "
        f"({config.readers} reader sessions, cache={config.cache_size})"
    )
    if server.exporter is not None:
        mhost, mport = server.exporter.address
        print(f"metrics: http://{mhost}:{mport}/metrics")
    if server.watchdog is not None:
        print(
            f"watchdog: p95<{arguments.slo_p95_ms}ms over "
            f"{arguments.slo_window}s windows"
        )
    try:
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
        help="write BENCH_*.json artifacts into DIR",
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

    from ..bench.reporting import write_bench_json
    from ..bench.server import (
        format_cache_ab,
        format_server_scaling,
        run_cache_ab,
        run_server_scaling,
    )

    arguments = build_bench_parser().parse_args(argv)
    depth = 6 if arguments.quick else 7
    duration = arguments.duration or (2.0 if arguments.quick else 4.0)

    scaling = run_server_scaling(
        depth=depth,
        reader_counts=(1, 8),
        clients=arguments.clients,
        duration=duration,
    )
    print("Throughput scaling (fig-12 ancestor mix, closed-loop clients):")
    print(format_server_scaling(scaling))
    print()
    cache = run_cache_ab(depth=6 if arguments.quick else 8)
    print("Result cache A/B (one session, served seconds):")
    print(format_cache_ab(cache))

    if arguments.report:
        os.makedirs(arguments.report, exist_ok=True)
        print()
        print(
            write_bench_json(
                os.path.join(arguments.report, "BENCH_server_scaling.json"),
                "server_scaling",
                scaling,
                depth=depth,
                clients=arguments.clients,
                duration=duration,
            )
        )
        print(
            write_bench_json(
                os.path.join(arguments.report, "BENCH_server_cache.json"),
                "server_cache_ab",
                [cache],
                speedup=cache.speedup,
            )
        )

    failures = []
    if any(point.errors for point in scaling):
        failures.append("protocol errors during the scaling run")
    if all(point.cache_hit_fraction == 0.0 for point in scaling):
        failures.append("result cache never hit during the scaling run")
    if cache.hits == 0:
        failures.append("cache A/B recorded no hits")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def build_bench_adaptive_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench-adaptive",
        description="Run the adaptive-serving loop: steady traffic, "
        "injected degradation (cold cache + unbound deep recursion), then "
        "recovery — measuring how fast the SLO watchdog detects, adapts, "
        "and de-escalates.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small tree, short phases (for smoke tests and CI)",
    )
    parser.add_argument(
        "--clients", type=int, default=4, help="closed-loop clients (default: 4)"
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog window width (default: 0.5, quick: 0.4)",
    )
    parser.add_argument(
        "--slo-p95-ms",
        type=float,
        default=25.0,
        metavar="MS",
        help="the latency objective the degradation must breach "
        "(default: 25)",
    )
    parser.add_argument(
        "--report",
        metavar="DIR",
        default=None,
        help="write BENCH_adaptive.json into DIR",
    )
    return parser


def bench_adaptive_main(argv: "list[str] | None" = None) -> int:
    import os

    from ..bench.adaptive import format_adaptive_loop, run_adaptive_loop
    from ..bench.reporting import write_bench_json

    arguments = build_bench_adaptive_parser().parse_args(argv)
    depth = 6 if arguments.quick else 7
    window = arguments.interval or (0.4 if arguments.quick else 0.5)
    result = run_adaptive_loop(
        depth=depth,
        window_seconds=window,
        clients=arguments.clients,
        degraded_windows=6 if arguments.quick else 8,
        recovery_windows=10 if arguments.quick else 12,
        p95_threshold_ms=arguments.slo_p95_ms,
    )
    print("Adaptive serving loop (SLO watchdog under injected degradation):")
    print(format_adaptive_loop(result))

    if arguments.report:
        os.makedirs(arguments.report, exist_ok=True)
        print()
        print(
            write_bench_json(
                os.path.join(arguments.report, "BENCH_adaptive.json"),
                "adaptive_loop",
                [result],
                depth=depth,
                clients=arguments.clients,
            )
        )

    failures = []
    if not result.detected:
        failures.append("the watchdog never detected the injected breach")
    elif result.detection_windows is not None and result.detection_windows > 3:
        failures.append(
            f"detection took {result.detection_windows} windows (> 3)"
        )
    if result.detected and not result.breach_actions:
        failures.append("the breach applied no serving escalations")
    if not result.recovered:
        failures.append("the watchdog never recovered after the degradation")
    if not result.restored:
        failures.append("escalations were not reverted by the end of the run")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(serve_main())
