"""Per-layer metrics: the traced windows' spans folded into named numbers.

Spans are grouped per *op*.  Spans recorded in the generator, in a server
child and in the cluster's router carry the client's op id (the wire
``id``), so they group under the timed op itself; a shard process only
sees the router's own request ids, so there each shard request is its own
group.  A span-derived metric is the median, over the groups in which that
layer did any work, of the layer's time (or count) in the group.  Numbers
the public API returns anyway — the reply's ``seconds``/``cached``, the
``stats`` op's counters — are read from the untraced windows of the same
run, so tracing does not inflate them.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional

from . import spec, stats, trace
from .trace import ATTRS, END, NAME, OP, PARENT, START

MS = 1e-6  # nanoseconds -> milliseconds
DDL = ("CREATE", "DROP", "ALTER")


class Group:
    """What one op's spans add up to, layer by layer."""

    def __init__(self) -> None:
        self.duration: dict[str, int] = defaultdict(int)
        self.own: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self.phases: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.attrs: dict[str, float] = defaultdict(float)
        self.seen: set[str] = set()

    def add(self, span: list, own: int) -> None:
        name = span[NAME]
        self.duration[name] += span[END] - span[START]
        self.own[name] += own
        self.count[name] += 1
        attrs = span[ATTRS]
        if not attrs:
            return
        for phase, seconds in (attrs.get("phases") or {}).items():
            self.phases[name][phase] += seconds
        for key in ("relevant_rules", "iterations", "tuples", "fetched", "changed", "answer_rows"):
            if attrs.get(key) is not None:
                self.attrs[key] += attrs[key]
                self.seen.add(key)
        if str(attrs.get("kind", "")).upper() in DDL:
            self.attrs["ddl"] += 1
        if "cache_hit" in attrs:
            self.attrs["stmt_hits" if attrs["cache_hit"] else "stmt_misses"] += 1


def gather_processes(role: str, span_files: Iterable[str]) -> list[dict[str, Any]]:
    """This process's spans (as ``role``) plus every child's dumped file."""
    processes = [
        {
            "pid": os.getpid(),
            "role": role,
            "threads": {str(tid): spans for tid, spans in trace.RECORDER.threads().items()},
        }
    ]
    for path in span_files:
        with open(path, encoding="utf-8") as handle:
            processes.append(json.load(handle))
    return processes


def fold(processes: list[dict[str, Any]]) -> dict[str, Any]:
    """Group every span; also the per-op coverage and a few flat lists."""
    groups: dict[Any, Group] = defaultdict(Group)          # system layers
    routed: dict[Any, Group] = defaultdict(Group)          # the router's spans
    op_duration: dict[Any, int] = {}
    covered: dict[Any, int] = defaultdict(int)
    flat: dict[str, list[float]] = defaultdict(list)
    totals: dict[str, float] = defaultdict(float)
    for process in processes:
        role = process["role"]
        for tid, spans in process["threads"].items():
            own = trace.self_times(spans)
            for index, span in enumerate(spans):
                if not span[END]:
                    continue  # still open when the run ended
                name, op = span[NAME], span[OP]
                length = span[END] - span[START]
                parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
                # Coverage: the outermost layer spans inside the timed op,
                # wherever they ran.  The client's own request call is the
                # timed op's skeleton, not a layer, so look through it.
                if name == "op":
                    op_duration[op] = length
                    continue
                if role == "generator":
                    if name != "client.request" and parent in ("op", "client.request"):
                        covered[op] += length
                    continue
                outermost = parent == "op" if role == "local" else parent is None
                if op is not None and outermost:
                    covered[op] += length
                if name == "server.admission.acquire":
                    flat["admission_wait_ms"].append(length * MS)
                if role == "router":
                    if name == "client.request":
                        flat["backend_rtt_ms"].append(length * MS)
                        seconds = (span[ATTRS] or {}).get("seconds")
                        if seconds is not None:
                            flat["backend_wire_ms"].append(length * MS - seconds * 1000.0)
                    if op is not None:
                        routed[op].add(span, own[index])
                    continue
                if op is None:
                    continue
                key = (process["pid"], tid, op) if role == "shard" else op
                groups[key].add(span, own[index])
                if name == "maintenance.refresh":
                    totals["refresh_fallbacks"] += 1
    return {
        "groups": groups,
        "routed": routed,
        "op_duration": op_duration,
        "covered": covered,
        "flat": flat,
        "totals": totals,
    }


def _median_over(groups: Iterable[Group], pick: Callable[[Group], Optional[float]]) -> Optional[float]:
    values = [value for value in (pick(group) for group in groups) if value is not None]
    return stats.median(values) if values else None


def _duration_ms(name: str) -> Callable[[Group], Optional[float]]:
    return lambda group: group.duration[name] * MS if group.count.get(name) else None


def _own_ms(name: str) -> Callable[[Group], Optional[float]]:
    return lambda group: group.own[name] * MS if group.count.get(name) else None


def _phase_ms(name: str, phase: str) -> Callable[[Group], Optional[float]]:
    return lambda group: (
        group.phases[name][phase] * 1000.0 if phase in group.phases.get(name, {}) else None
    )


def _attr(key: str, needs: str) -> Callable[[Group], Optional[float]]:
    return lambda group: group.attrs[key] if group.count.get(needs) else None


def _session_own_ms(group: Group) -> Optional[float]:
    names = [name for name in group.count if name.startswith("km.session.")]
    return sum(group.own[name] for name in names) * MS if names else None


def _rows_per_answer(group: Group) -> Optional[float]:
    if "answer_rows" not in group.seen or not group.count.get("dbms.sql"):
        return None
    return group.attrs["changed"] / max(group.attrs["answer_rows"], 1.0)


#: metric -> (span whose hook must exist, how to read one group).
SPAN_METRICS: dict[str, tuple[str, Callable[[Group], Optional[float]]]] = {
    "datalog.parse_ms": ("datalog.parse", _duration_ms("datalog.parse")),
    "km.compile_ms": ("km.compile", _duration_ms("km.compile")),
    "km.compile.relevant_rules": ("km.compile", _attr("relevant_rules", "km.compile")),
    "km.update_ms": ("km.update", _duration_ms("km.update")),
    "km.session.self_ms": ("km.session.query", _session_own_ms),
    "runtime.execute_ms": ("runtime.execute", _duration_ms("runtime.execute")),
    "runtime.self_ms": ("runtime.execute", _own_ms("runtime.execute")),
    "runtime.lfp_iterations": ("runtime.execute", _attr("iterations", "runtime.execute")),
    "runtime.tuples_derived": ("runtime.execute", _attr("tuples", "runtime.execute")),
    "dbms.sql_ms": ("dbms.sql", _duration_ms("dbms.sql")),
    "dbms.statements": ("dbms.sql", lambda g: g.count["dbms.sql"] or None),
    "dbms.ddl_statements": ("dbms.sql", _attr("ddl", "dbms.sql")),
    "dbms.rows_fetched": ("dbms.sql", _attr("fetched", "dbms.sql")),
    "dbms.rows_changed": ("dbms.sql", _attr("changed", "dbms.sql")),
    "dbms.rows_per_answer": ("dbms.sql", _rows_per_answer),
    "maintenance.insert_ms": ("maintenance.insert", _duration_ms("maintenance.insert")),
    "maintenance.delete_ms": ("maintenance.delete", _duration_ms("maintenance.delete")),
    "maintenance.view_answer_ms": (
        "maintenance.view_answer", _duration_ms("maintenance.view_answer")
    ),
    "server.protocol.decode_ms": ("server.protocol.decode", _duration_ms("server.protocol.decode")),
    "server.protocol.encode_ms": ("server.protocol.encode", _duration_ms("server.protocol.encode")),
    "server.pool.write_ms": ("server.pool.write", _duration_ms("server.pool.write")),
    "server.pool.writer_wait_ms": ("server.pool.write", _own_ms("server.pool.write.wait")),
    "server.read_ms": ("server.read", _duration_ms("server.read")),
}
for _phase in ("extract", "readdict", "semantic", "optimize", "eorder", "gencompile"):
    SPAN_METRICS[f"km.compile.{_phase}_ms"] = ("km.compile", _phase_ms("km.compile", _phase))
for _phase in ("extract", "closure", "typecheck", "store"):
    SPAN_METRICS[f"km.update.{_phase}_ms"] = ("km.update", _phase_ms("km.update", _phase))


def _median_ms(values: list[float]) -> Optional[float]:
    return stats.median(values) * 1000.0 if values else None


def compute(
    workload: Any,
    windows: list,
    before: dict[str, float],
    after: dict[str, float],
    ended: dict[str, Any],
    missing_hooks: list[str],
    trace_path: Optional[str] = None,
) -> dict[str, Optional[float]]:
    """Every per-layer metric of one traced run (``None`` = no data)."""
    served = workload.child_kind is not None
    processes = gather_processes("generator" if served else "local", ended.get("span_files", ()))
    folded = fold(processes)
    gone = trace.spans_missing(missing_hooks)
    metrics: dict[str, Optional[float]] = {layer.name: None for layer in spec.PER_LAYER}

    groups = list(folded["groups"].values())
    for name, (span, pick) in SPAN_METRICS.items():
        metrics[name] = None if span in gone else _median_over(groups, pick)
    if "dbms.sql" not in gone:
        hits = sum(group.attrs["stmt_hits"] for group in groups)
        misses = sum(group.attrs["stmt_misses"] for group in groups)
        metrics["dbms.stmt_cache_hit_rate"] = hits / (hits + misses) if hits + misses else None
    if "maintenance.refresh" not in gone:
        metrics["maintenance.refresh_fallbacks"] = folded["totals"]["refresh_fallbacks"]
    metrics["dbms.file_mb"] = ended.get("file_bytes", 0) / 1048576.0

    plain = [r for window in windows if not window.traced for r in window.results]
    traced = [r for window in windows if window.traced for r in window.results]
    if served:
        requests = [request for result in plain for request in result.requests]
        timed = [(seen, own) for seen, own, _ in requests if own is not None]
        metrics["server.eval_ms"] = _median_ms([own for _, own in timed])
        metrics["server.connect_ms"] = _median_ms(ended.get("connect_seconds", []))
        if "server.admission.acquire" not in gone and folded["flat"]["admission_wait_ms"]:
            metrics["server.admission.wait_ms"] = stats.median(folded["flat"]["admission_wait_ms"])
        delta = {name: after.get(name, 0) - before.get(name, 0) for name in after}
        lookups = delta.get("cache.hits", 0) + delta.get("cache.misses", 0)
        metrics["server.cache.hit_rate"] = delta.get("cache.hits", 0) / lookups if lookups else None
        metrics["server.cache.evictions"] = delta.get("cache.evictions", 0)
        metrics["server.admission.shed"] = delta.get("admission.shed", 0)
        if workload.child_kind == "cluster":
            flat = folded["flat"]
            if "client.request" not in gone:
                if flat["backend_wire_ms"]:
                    metrics["server.wire_overhead_ms"] = stats.median(flat["backend_wire_ms"])
                if flat["backend_rtt_ms"]:
                    metrics["cluster.backend_rtt_ms"] = stats.median(flat["backend_rtt_ms"])
            if "cluster.merge" not in gone:
                metrics["cluster.merge_ms"] = _median_over(
                    folded["routed"].values(), _duration_ms("cluster.merge")
                )
            metrics["cluster.router_overhead_ms"] = _median_ms([seen - own for seen, own in timed])
            for kind, name in (("pinned", "pinned"), ("fanout", "fanout"), ("insert", "write")):
                metrics[f"cluster.{name}_ms"] = _median_ms(
                    [r.latency for r in plain if r.kind == kind]
                )
            loads = [value for name, value in delta.items() if name.startswith("shard_requests.")]
            if loads and sum(loads):
                metrics["cluster.shard_imbalance"] = max(loads) / (sum(loads) / len(loads))
            metrics["cluster.stale_fallbacks"] = delta.get("router.stale_fallbacks", 0)
        else:
            metrics["server.wire_overhead_ms"] = _median_ms([seen - own for seen, own in timed])

    if plain and traced:
        metrics["obs.trace_overhead_share"] = (
            stats.median([r.latency for r in traced]) / stats.median([r.latency for r in plain]) - 1.0
        )
    total = sum(folded["op_duration"].values())
    if total:
        uncovered = sum(
            max(length - folded["covered"].get(op, 0), 0)
            for op, length in folded["op_duration"].items()
        )
        metrics["obs.unattributed_share"] = uncovered / total
    metrics["obs.missing_hooks"] = len(missing_hooks)

    if trace_path is not None:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": trace.chrome_events(processes)}, handle)
    return metrics
