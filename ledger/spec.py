"""The ledger's vocabulary: workload names, metric names, units, bounds.

``BENCHMARK.json`` at the repo root states the same names for the driver;
the self-test asserts the two agree.  ``moves`` records, before anything
is measured, which end-to-end metric on which workload each layer metric
should move (and README.md prints the table).
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1988
DEFAULT_SECONDS = 15

#: name -> why this workload is in the ledger (one line each).
WORKLOADS: dict[str, str] = {
    "compile_rulebase": (
        "R_s=400 stored rules, 64 bound query texts: km+datalog compile "
        "dominates, runtime/dbms nearly idle; ~6x text reuse lets a plan cache show"
    ),
    "lfp_closure": (
        "four graph families + same_generation, unbound/root/leaf-bound: "
        "runtime+dbms dominate, compile <5%; selective third is where magic/QSQN pay"
    ),
    "kb_update": (
        "file-backed R_s=189 growing: define 4-rule module + update_stored_dkb; "
        "the km layer used the other way, compiled-storage update cost shows only here"
    ),
    "serve_hot": (
        "DkbServer child, 2 connections, 64 cached bound queries: wire/protocol/"
        "admission/cache do the work, km/runtime none; fits the result cache"
    ),
    "serve_write_read": (
        "materialized ancestor, read-my-writes scripts (1 update + 8 reads): "
        "maintenance under the writer lock, cache bypassed by every version bump"
    ),
    "cluster_routed": (
        "router + 2 shard processes, 85% pinned / 10% fan-out / 5% insert over "
        "~2000 distinct queries: crosses cluster, misses the cache, larger than it"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


#: What a user of the system sees, with the share of the parent's median by
#: which each may worsen before it counts as a regression.  A bound is the
#: issue's starting value (0.10 / 0.10 / 0.15 / 0.10 / 0.25) unless three
#: times the largest quartile spread in the committed ``results/spread.json``
#: (ten seeds per workload) is more — the driver wants every spread under a
#: third of its bound — rounded up to the next 0.05 and capped at the 0.25
#: the driver allows.  README.md, "Bounds", has the numbers.
#: ``failed_share`` is the sixth number every run reports, but it is 0 at
#: the seed commit and the driver's bounds are relative, so it travels as
#: the result line's ``attempted``/``failed`` pair instead of as a bounded
#: metric.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("throughput_ops_s", "ops/s", "higher", 0.25),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25),
    EndToEnd("latency_p95_ms", "ms", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
    EndToEnd("setup_s", "s", "lower", 0.25),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str


_MS, _COUNT, _RATIO = "ms", "count", "ratio"


def _ms(name: str, moves: str) -> Layer:
    return Layer(name, _MS, "lower", moves)


def _count(name: str, moves: str) -> Layer:
    return Layer(name, _COUNT, "lower", moves)


_COMPILE = (
    "latency_p50_ms, throughput_ops_s on compile_rulebase; little on "
    "lfp_closure; none on serve_hot"
)
_UPDATE = "latency_p50_ms, latency_p95_ms on kb_update (closure grows with R_s -> p95)"
_RUNTIME = (
    "latency_p50_ms, throughput_ops_s on lfp_closure; latency_p50_ms on "
    "cluster_routed; little on compile_rulebase"
)
_DBMS = (
    "latency_p50_ms on lfp_closure; latency_p50_ms on kb_update (store); "
    "peak_rss_mb on lfp_closure"
)
_MAINT = "latency_p50_ms on serve_write_read; none elsewhere"
_WIRE = (
    "latency_p50_ms, throughput_ops_s on serve_hot; little (<10% of latency) "
    "on cluster_routed"
)
_EVAL = "latency_p50_ms on serve_hot (hit path) and cluster_routed (miss path)"
_POOL = (
    "latency_p50_ms (write + reads sum to the script), latency_p95_ms "
    "(writer contention) on serve_write_read"
)
_CLUSTER = (
    "latency_p50_ms (pinned), latency_p95_ms (fan-out: slowest shard sets "
    "it), throughput_ops_s on cluster_routed; none elsewhere"
)
_OBS = "sanity of the ledger itself, every workload"

#: Per-op medians unless the unit says count / ratio.
PER_LAYER: tuple[Layer, ...] = (
    _ms("datalog.parse_ms", "latency_p50_ms on compile_rulebase, kb_update"),
    _ms("km.compile_ms", _COMPILE),
    _ms("km.compile.extract_ms", _COMPILE),
    _ms("km.compile.readdict_ms", _COMPILE),
    _ms("km.compile.semantic_ms", _COMPILE),
    _ms("km.compile.optimize_ms", _COMPILE),
    _ms("km.compile.eorder_ms", _COMPILE),
    _ms("km.compile.gencompile_ms", _COMPILE),
    _count("km.compile.relevant_rules", _COMPILE),
    _ms("km.update_ms", _UPDATE),
    _ms("km.update.extract_ms", _UPDATE),
    _ms("km.update.closure_ms", _UPDATE),
    _ms("km.update.typecheck_ms", _UPDATE),
    _ms("km.update.store_ms", _UPDATE),
    _ms("km.session.self_ms", "latency_p50_ms on compile_rulebase, lfp_closure"),
    _ms("runtime.execute_ms", _RUNTIME),
    _ms("runtime.self_ms", _RUNTIME),
    _count("runtime.lfp_iterations", _RUNTIME),
    _count("runtime.tuples_derived", _RUNTIME),
    _ms("dbms.sql_ms", _DBMS),
    _count("dbms.statements", _DBMS),
    _count("dbms.ddl_statements", _DBMS),
    _count("dbms.rows_fetched", _DBMS),
    _count("dbms.rows_changed", _DBMS),
    Layer("dbms.rows_per_answer", _RATIO, "lower", _DBMS),
    Layer("dbms.stmt_cache_hit_rate", _RATIO, "higher", _DBMS),
    Layer(
        "dbms.file_mb", "MB", "lower",
        "setup_s, latency_p95_ms on serve_write_read, kb_update",
    ),
    _ms("maintenance.insert_ms", _MAINT),
    _ms("maintenance.delete_ms", _MAINT),
    _count("maintenance.refresh_fallbacks", _MAINT),
    _ms("maintenance.view_answer_ms", _MAINT),
    _ms("server.wire_overhead_ms", _WIRE),
    _ms("server.protocol.decode_ms", _WIRE),
    _ms("server.protocol.encode_ms", _WIRE),
    _ms("server.admission.wait_ms", _WIRE),
    _count("server.admission.shed", _WIRE),
    _ms("server.connect_ms", _WIRE),
    _ms("server.eval_ms", _EVAL),
    Layer("server.cache.hit_rate", _RATIO, "higher", _EVAL),
    _count("server.cache.evictions", _EVAL),
    _ms("server.pool.write_ms", _POOL),
    _ms("server.pool.writer_wait_ms", _POOL),
    _ms("server.read_ms", _POOL),
    _ms("cluster.router_overhead_ms", _CLUSTER),
    _ms("cluster.backend_rtt_ms", _CLUSTER),
    _ms("cluster.merge_ms", _CLUSTER),
    _ms("cluster.pinned_ms", _CLUSTER),
    _ms("cluster.fanout_ms", _CLUSTER),
    _ms("cluster.write_ms", _CLUSTER),
    Layer("cluster.shard_imbalance", _RATIO, "lower", _CLUSTER),
    _count("cluster.stale_fallbacks", _CLUSTER),
    Layer("obs.trace_overhead_share", _RATIO, "lower", _OBS),
    Layer("obs.unattributed_share", _RATIO, "lower", _OBS),
    _count("obs.missing_hooks", _OBS),
)


def benchmark_json() -> dict:
    """The content ``BENCHMARK.json`` must have (the self-test compares)."""
    return {
        "command": ["python3", "-m", "ledger", "run"],
        "paths": ["ledger"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
