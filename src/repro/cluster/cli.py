"""``python -m repro cluster`` / ``bench-cluster`` — the cluster CLIs.

``cluster`` boots a sharded cluster (one process per shard, optional read
replicas, the router in the supervising process) and serves until
interrupted; ``--demo-depth`` seeds the ancestor workload through the
router first so the cluster is immediately queryable.  ``bench-cluster``
runs the shard-scaling experiment spec (1 shard vs N shards under an
identical closed-loop population), prints the table, optionally appends its
rows to ``BENCH_cluster_scaling.jsonl``, and exits non-zero on an error row,
protocol errors or a scaling regression, so CI can gate on it.

Heavyweight imports happen inside the entry points, keeping
``python -m repro``'s startup light.
"""

from __future__ import annotations

import argparse
import json

from ..server.cli import sigterm_interrupts


def _parse_spec_arguments(arguments: argparse.Namespace) -> "Any":
    """Build the PartitionSpec from the repeatable CLI declarations."""
    from ..km.partition import PartitionSpec, TablePartition

    tables = {}
    for declaration in arguments.partition or []:
        name, _, column = declaration.partition(":")
        tables[name] = TablePartition(int(column) if column else 0)
    routes = {}
    for declaration in arguments.route or []:
        name, _, position = declaration.partition(":")
        if not position:
            raise SystemExit(
                f"--route needs predicate:position, got {declaration!r}"
            )
        routes[name] = int(position)
    return PartitionSpec(
        shards=arguments.shards,
        tables=tables,
        broadcast=frozenset(arguments.broadcast or ()),
        routes=routes,
        key_delimiter=arguments.key_delimiter,
    )


def build_cluster_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro cluster",
        description="Serve a sharded D/KBMS cluster: one process per "
        "shard, optional read replicas, and a routing front-end speaking "
        "the single-server protocol.",
    )
    parser.add_argument(
        "data_dir", help="directory for the per-shard database files"
    )
    parser.add_argument(
        "--shards", type=int, default=2, help="hash partitions (default: 2)"
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="read replicas per shard (default: 0)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7408, help="router port (0 = ephemeral)"
    )
    parser.add_argument(
        "--readers",
        type=int,
        default=4,
        help="reader sessions per backend server (default: 4)",
    )
    parser.add_argument(
        "--partition",
        action="append",
        metavar="TABLE[:KEYCOL]",
        help="hash-partition TABLE on KEYCOL (default column 0); repeatable",
    )
    parser.add_argument(
        "--broadcast",
        action="append",
        metavar="TABLE",
        help="replicate TABLE to every shard; repeatable",
    )
    parser.add_argument(
        "--route",
        action="append",
        metavar="PRED:POS",
        help="declare derived PRED routable on argument POS; repeatable",
    )
    parser.add_argument(
        "--key-delimiter",
        default="_",
        help="entity-group prefix separator in key values (default: '_')",
    )
    parser.add_argument(
        "--max-lag",
        type=int,
        default=None,
        metavar="K",
        help="bound replica staleness to K versions behind the newest "
        "witnessed version (default: unbounded)",
    )
    parser.add_argument(
        "--no-replica-reads",
        action="store_true",
        help="serve every read from shard primaries",
    )
    parser.add_argument(
        "--replication-poll",
        type=float,
        default=0.25,
        help="replica pull cadence in seconds (default: 0.25)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve Prometheus /metrics on this router side port, with "
        "per-shard versions and replica lag (0 = ephemeral; omit for no "
        "exporter)",
    )
    parser.add_argument(
        "--demo-depth",
        type=int,
        default=0,
        metavar="DEPTH",
        help="seed the ancestor rules plus one DEPTH-level binary tree "
        "per shard through the router before serving",
    )
    parser.add_argument(
        "--rules",
        metavar="FILE",
        default=None,
        help="Horn clause file to vet against the partition spec "
        "(default: the ancestor demo rules)",
    )
    parser.add_argument(
        "--lint-partition",
        action="store_true",
        help="run only the partition lints (DK10x) over the rules and "
        "exit: 0 clean, 1 findings, 2 bad input — no shard boots",
    )
    return parser


def _partition_lint_program(arguments: argparse.Namespace) -> "Any":
    """The program the partition lints vet: ``--rules`` or the demo rules."""
    from ..datalog.parser import parse_program
    from ..workloads.queries import ANCESTOR_RULES

    if arguments.rules is not None:
        with open(arguments.rules) as handle:
            return parse_program(handle.read())
    return parse_program(ANCESTOR_RULES)


def _vet_partition(arguments: argparse.Namespace, spec: "Any") -> int:
    """Run the DK10x lints pre-boot; returns the would-be exit code.

    ``--lint-partition`` prints the full report; otherwise only
    error-severity findings are printed (they abort the boot).
    """
    from ..errors import TestbedError
    from .speclint import lint_partition

    try:
        program = _partition_lint_program(arguments)
    except (OSError, TestbedError) as error:
        print(f"python -m repro cluster: error: {error}")
        return 2
    report = lint_partition(program, spec)
    if arguments.lint_partition:
        print(report.render())
        return 1 if report.has_errors else 0
    if report.has_errors:
        print("refusing to boot: the rule base fails the partition lints")
        print(report.render())
        return 1
    return 0


def cluster_main(argv: "list[str] | None" = None) -> int:
    from ..server.client import DkbClient
    from .router import ReadPolicy
    from .supervisor import ClusterConfig, ClusterSupervisor

    arguments = build_cluster_parser().parse_args(argv)
    spec = _parse_spec_arguments(arguments)
    # Vet the rule base against the partition spec before any shard
    # process boots — an unroutable spec is a configuration error, not
    # something to discover after the cluster is serving.
    if arguments.lint_partition or arguments.demo_depth or arguments.rules:
        status = _vet_partition(arguments, spec)
        if arguments.lint_partition or status:
            return status
    config = ClusterConfig(
        spec=spec,
        data_dir=arguments.data_dir,
        replicas=arguments.replicas,
        host=arguments.host,
        router_port=arguments.port,
        read_policy=ReadPolicy(
            prefer_replica=not arguments.no_replica_reads,
            max_lag=arguments.max_lag,
        ),
        readers=arguments.readers,
        replication_poll=arguments.replication_poll,
        metrics_port=arguments.metrics_port,
    )
    supervisor = ClusterSupervisor(config)
    # SIGTERM (``kill``, a service manager) stops the shards like Ctrl-C.
    with sigterm_interrupts():
        try:
            if arguments.demo_depth:
                from ..workloads.served import seed_cluster, wait_for_replicas

                host, port = supervisor.address
                with DkbClient(host, port) as client:
                    trees = seed_cluster(
                        client, depth=arguments.demo_depth, trees=spec.shards
                    )
                    if arguments.replicas:
                        wait_for_replicas(client)
                print(
                    f"seeded ancestor demo ({trees} trees of depth "
                    f"{arguments.demo_depth}) through the router"
                )
            print(json.dumps(supervisor.describe(), indent=2))
            host, port = supervisor.address
            print(f"cluster router on {host}:{port}")
            if supervisor.router is not None and supervisor.router.exporter is not None:
                mhost, mport = supervisor.router.exporter.address
                print(f"metrics: http://{mhost}:{mport}/metrics")
            supervisor.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            supervisor.close()
    return 0


def build_bench_cluster_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench-cluster",
        description="Run the cluster benchmark: read throughput at 1 shard "
        "vs N shards under the same closed-loop client population.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small trees, short burst, 2 shards (for smoke tests and CI)",
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="scaled shard count (default: 4)"
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="read replicas per shard (default: 0)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=32,
        help="closed-loop clients (default: 32)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="seconds per measurement (default: 5, quick: 2.5)",
    )
    parser.add_argument(
        "--report",
        metavar="DIR",
        default=None,
        help="append BENCH_cluster_scaling.jsonl into DIR",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless N-shard throughput >= X * 1-shard throughput",
    )
    return parser


def bench_cluster_main(argv: "list[str] | None" = None) -> int:
    import os

    from ..bench import append_jsonl, report, run
    from ..bench.specs import CLUSTER_SCALING

    arguments = build_bench_cluster_parser().parse_args(argv)
    rows = run(
        CLUSTER_SCALING,
        shards=(1, 2 if arguments.quick else arguments.shards),
        depth=5 if arguments.quick else 8,
        replicas=arguments.replicas,
        clients=arguments.clients,
        duration=arguments.duration or (2.5 if arguments.quick else 5.0),
    )
    print(report(CLUSTER_SCALING, rows))
    if arguments.report:
        print()
        print(append_jsonl(os.path.join(arguments.report, "BENCH_cluster_scaling.jsonl"), rows))

    failures = [f"{row['point']}: {row['error']}" for row in rows if row["error"]]
    if any(row["counts"].get("errors") for row in rows):
        failures.append("protocol errors during the scaling run")
    if arguments.min_speedup is not None and not failures:
        baseline = rows[0]["counts"]["rps"]
        speedup = rows[-1]["counts"]["rps"] / baseline if baseline else 0.0
        if speedup < arguments.min_speedup:
            failures.append(
                f"{rows[-1]['point']['shards']}-shard speedup {speedup:.2f}x is "
                f"below the {arguments.min_speedup:.2f}x floor"
            )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(cluster_main())
