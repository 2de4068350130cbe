"""The three served workloads: the system runs in a child process, the
load generator talks to it over ``DkbClient`` connections.

One persistent connection per generator thread, at most ``min(nproc, 2)``
of them; every request blocks on its reply (closed loop, no think time).
Requests carry the op id as their wire ``id`` so the traced pass can join
the generator's spans to the server's.
"""

from __future__ import annotations

import os
import time
from typing import Any, Iterator, Optional

from repro.server import DkbClient

from . import inputs, oracle
from .launcher import Child
from .workload import (
    OpResult, Workload, directory_bytes, finished, in_parallel, start_op, stop_op,
)

#: Socket timeout of every load connection: a hung server fails the op
#: (and, after a few in a row, the connection) instead of hanging the run.
OP_TIMEOUT = 20.0

CONNECTIONS = min(os.cpu_count() or 1, 2)


class ServedWorkload(Workload):
    """Shared plumbing: child lifecycle, connections, the ``stats`` op."""

    connections = CONNECTIONS
    child_kind = "server"
    READERS = 2

    child: Optional[Child] = None

    def child_options(self) -> dict[str, Any]:
        return {"dir": self.workdir, "readers": self.READERS, "trace": self.traced}

    def boot(self) -> DkbClient:
        """Start the child; returns the connection used for seeding."""
        self.clients: list[DkbClient] = []
        self.connect_seconds: list[float] = []
        self.child = Child(self.child_kind, self.child_options())
        self.missing_hooks = list(self.child.ready.get("missing_hooks", ()))
        self.admin = DkbClient(*self.child.address, timeout=OP_TIMEOUT)
        return self.admin

    def connect_load(self) -> None:
        """Open the load connections (their admission waits are traced)."""
        assert self.child is not None
        # The admin connection holds one of the server's reader sessions;
        # free it so ``connections == readers`` does not queue at the door.
        self.admin.close()
        if self.traced:
            self.child.command("trace on")
        for _ in range(self.connections):
            started = time.perf_counter()
            client = DkbClient(*self.child.address, timeout=OP_TIMEOUT)
            client.ping()
            self.connect_seconds.append(time.perf_counter() - started)
            self.clients.append(client)
        if self.traced:
            self.child.command("trace off")

    def set_tracing(self, enabled: bool) -> None:
        super().set_tracing(enabled)
        if self.child is not None:
            self.child.command("trace on" if enabled else "trace off")

    def stats(self) -> dict[str, Any]:
        return self.clients[0].stats()["stats"]

    def counters(self) -> dict[str, float]:
        return _server_counters(self.stats())

    def teardown(self) -> dict[str, Any]:
        report: dict[str, Any] = {}
        try:
            for client in getattr(self, "clients", ()):
                try:
                    client.close()
                except OSError:
                    pass
            file_bytes = directory_bytes(self.workdir)
        finally:
            if self.child is not None:
                report = self.child.stop()
                self.child = None
        report.setdefault("peak_rss_kb", 0)
        report["file_bytes"] = file_bytes
        report["connect_seconds"] = list(self.connect_seconds)
        return report

    def request(
        self, connection: int, op: str, **payload: Any
    ) -> tuple[dict[str, Any], tuple[float, Optional[float], Optional[bool]]]:
        """One round trip on a load connection, clocked by the caller."""
        started = time.perf_counter()
        reply = self.clients[connection].request(op, **payload)
        elapsed = time.perf_counter() - started
        return reply, (elapsed, reply.get("seconds"), reply.get("cached"))


class ServeHot(ServedWorkload):
    """Cached bound reads: the wire and the server shell are the work."""

    name = "serve_hot"
    timed_op = "one query round trip (DkbClient.request), result-cache hit"

    TREE_DEPTH = 8
    QUERY_LEVELS = (4, 5, 6, 7)
    PER_LEVEL = 16
    ROUNDS = 160  # x 64 queries x 2 connections = 20 480 ops

    def setup(self) -> None:
        rng = inputs.rng_for(self.seed, self.name)
        prefix = inputs.seed_tag(self.seed) + "n"
        edges = inputs.binary_tree(prefix, self.TREE_DEPTH)
        program = inputs.ancestor_rules("ancestor", "edge")
        graph = oracle.adjacency(edges)
        self.queries: list[tuple[str, frozenset]] = []
        for level in self.QUERY_LEVELS:
            for node in inputs.shuffled(inputs.tree_level(prefix, level), rng)[: self.PER_LEVEL]:
                self.queries.append(
                    (
                        f"?- ancestor({inputs.quoted(node)}, Y).",
                        frozenset((y,) for y in oracle.reachable(graph, node)),
                    )
                )
        rows = [list(edge) for edge in inputs.shuffled(edges, rng)]
        self.digest = inputs.digest(program, rows, [q for q, _ in self.queries])
        self._rngs = [inputs.rng_for(self.seed, self.name, c) for c in range(self.connections)]

        admin = self.boot()
        admin.define(program)
        admin.insert("edge", rows)
        self.connect_load()
        # Warm-up: fill the result cache (each connection evaluates its
        # share once), then one full round per connection on the hit path.
        share = -(-len(self.queries) // self.connections)
        in_parallel(
            self.connections,
            lambda c: [
                self.clients[c].query(text)
                for text, _ in self.queries[c * share:(c + 1) * share]
            ],
        )
        self.warm_up()

    def rounds(self, connection: int) -> Iterator[list]:
        rng = self._rngs[connection]
        while True:
            yield inputs.shuffled(self.queries, rng)

    def execute(self, connection: int, op: Any) -> OpResult:
        text, expected = op
        op_id = self.new_op_id(connection)
        token, started = start_op(op_id)
        try:
            reply, timing = self.request(connection, "query", q=text, id=op_id)
        except Exception:
            return finished(op_id, "query", started, stop_op(token, started), False)
        latency = stop_op(token, started)
        return finished(op_id, "query", started, latency, oracle.rows_match(reply["rows"], expected), (timing,)
        )

class ServeWriteRead(ServedWorkload):
    """Writes beside reads over a materialized ``ancestor``."""

    name = "serve_write_read"
    timed_op = "one read-my-writes script: 1 update (4-edge leaf batch) + 8 bound reads"

    TREE_DEPTH = 7
    BATCH_LEVEL = 5  # a level-5 node has exactly 4 leaves at level 7
    PAIRS_PER_ROUND = 4
    ROUNDS = 36  # x 8 scripts x 2 connections = 576 ops

    def setup(self) -> None:
        rng = inputs.rng_for(self.seed, self.name)
        self.prefix = inputs.seed_tag(self.seed) + "n"
        edges = inputs.binary_tree(self.prefix, self.TREE_DEPTH)
        program = inputs.ancestor_rules("ancestor", "edge")
        rows = [list(edge) for edge in inputs.shuffled(edges, rng)]
        self.digest = inputs.digest(program, rows)
        # Connection c owns the subtree under node c+1 (disjoint halves), so
        # each connection's oracle depends on its own writes only.
        self.graphs = [
            {source: list(targets) for source, targets in oracle.adjacency(edges).items()}
            for _ in range(self.connections)
        ]
        self.parent = {child: parent for parent, child in edges}
        self.batch_nodes = []
        for connection in range(self.connections):
            inside = oracle.reachable(self.graphs[0], f"{self.prefix}{connection + 1}")
            self.batch_nodes.append(
                [n for n in inputs.tree_level(self.prefix, self.BATCH_LEVEL) if n in inside]
            )
        self._rngs = [inputs.rng_for(self.seed, self.name, c) for c in range(self.connections)]
        self._scripts = [0] * self.connections

        admin = self.boot()
        admin.define(program)
        admin.insert("edge", rows)
        admin.materialize("ancestor")
        self.connect_load()
        self.warm_up()

    def rounds(self, connection: int) -> Iterator[list]:
        """Insert/delete pairs, so every round ends where it began."""
        rng = self._rngs[connection]
        while True:
            ops = []
            for anchor in rng.sample(self.batch_nodes[connection], self.PAIRS_PER_ROUND):
                self._scripts[connection] += 1
                batch = self._scripts[connection]
                ops.append(("insert", anchor, batch))
                ops.append(("delete", anchor, batch))
            yield ops

    def execute(self, connection: int, op: Any) -> OpResult:
        action, anchor, batch = op
        graph = self.graphs[connection]
        index = int(anchor[len(self.prefix):])
        children = [f"{self.prefix}{2 * index + 1}", f"{self.prefix}{2 * index + 2}"]
        leaves = [leaf for child in children for leaf in graph[child]][:4]
        new_edges = [
            [leaf, f"{self.prefix}w{connection}b{batch}x{slot}"]
            for slot, leaf in enumerate(leaves)
        ]
        reads = [self.parent[anchor], anchor, *children, *leaves]
        op_id = self.new_op_id(connection)
        timings = []
        ok = True
        token, started = start_op(op_id)
        try:
            reply, timing = self.request(
                connection, "update", predicate="edge", action=action, rows=new_edges, id=op_id
            )
            timings.append(timing)
            ok = reply["count"] == len(new_edges)
            # The oracle moves to the version this connection just wrote.
            for leaf, fresh in new_edges:
                if action == "insert":
                    graph.setdefault(leaf, []).append(fresh)
                else:
                    graph[leaf].remove(fresh)
            answers = []
            for node in reads:
                reply, timing = self.request(
                    connection, "query", q=f"?- ancestor({inputs.quoted(node)}, Y).", id=op_id
                )
                timings.append(timing)
                answers.append(reply["rows"])
        except Exception:
            return finished(op_id, action, started, stop_op(token, started), False, tuple(timings))
        latency = stop_op(token, started)
        for node, rows in zip(reads, answers):
            expected = frozenset((y,) for y in oracle.reachable(graph, node))
            ok = ok and oracle.rows_match(rows, expected)
        return finished(op_id, action, started, latency, ok, tuple(timings))

class ClusterRouted(ServedWorkload):
    """Routed reads and writes over two shard processes."""

    name = "cluster_routed"
    timed_op = "one round trip through the router (pinned read, fan-out read or insert)"
    child_kind = "cluster"
    # One connection.  With two, generator + router + two shards keep both
    # cores saturated, nothing absorbs the box's own noise, and ten runs
    # spread 25-30 % — past the largest bound the driver allows.
    connections = 1

    SHARDS = 2
    TREES = 8
    TREE_DEPTH = 7
    ROUND = (("pinned", 17), ("fanout", 2), ("insert", 1))
    ROUNDS = 28  # 560 ops

    def child_options(self) -> dict[str, Any]:
        options = super().child_options()
        options.update(shards=self.SHARDS, tables={"edge": 0}, routes={"ancestor": 0})
        return options

    def _groups(self) -> list[str]:
        """Entity-group (tree) names, the same number on every shard —
        placement asked of the public ``PartitionSpec``, not re-derived."""
        from repro.cluster import PartitionSpec

        spec = PartitionSpec(shards=self.SHARDS)
        tag = inputs.seed_tag(self.seed)
        per_shard = self.TREES // self.SHARDS
        by_shard: dict[int, list[str]] = {shard: [] for shard in range(self.SHARDS)}
        candidate = 0
        while any(len(names) < per_shard for names in by_shard.values()):
            name = f"{tag}g{candidate}"
            candidate += 1
            home = by_shard[spec.shard_of_key(name + "_0")]
            if len(home) < per_shard:
                home.append(name)
        return [name for names in by_shard.values() for name in names]

    def setup(self) -> None:
        rng = inputs.rng_for(self.seed, self.name)
        program = inputs.ancestor_rules("ancestor", "edge")
        trees = {
            group: inputs.binary_tree(group + "_", self.TREE_DEPTH) for group in self._groups()
        }
        self.digest = inputs.digest(program, trees)
        edges = [edge for tree in trees.values() for edge in tree]
        # The oracle's state: the graph and its closure at the version this
        # connection has written up to (every insert extends both).
        self.graph = oracle.adjacency(edges)
        self.closure = oracle.closure(edges)
        self.ancestors: dict[str, list[str]] = {}
        for source, target in sorted(self.closure):
            self.ancestors.setdefault(target, []).append(source)
        self.nodes = inputs.shuffled(sorted({node for edge in edges for node in edge}), rng)
        self._rng = rng
        self._cursor = 0

        admin = self.boot()
        admin.define(program)
        for group in inputs.shuffled(sorted(trees), rng):
            admin.insert("edge", [list(edge) for edge in inputs.shuffled(trees[group], rng)])
        self.connect_load()
        self.warm_up()

    def rounds(self, connection: int) -> Iterator[list]:
        rng, nodes = self._rng, self.nodes
        whole_closure = False
        while True:
            # Every second round one fan-out read asks for the whole closure
            # (2.5 % of the ops, the slowest); the rest bind the target.  So
            # p95 falls inside the target-bound class (7.5 %), not on the
            # edge between two classes where it would flip from run to run.
            whole_closure = not whole_closure
            ops: list[tuple[str, str]] = []
            for kind, count in self.ROUND:
                for position in range(count):
                    if kind == "insert":
                        ops.append((kind, rng.choice(nodes)))
                    elif kind == "fanout" and position == 0 and whole_closure:
                        ops.append((kind, ""))  # the whole closure, from every shard
                    else:
                        # Pinned reads bind the routing key; the other
                        # fan-out reads bind the target instead (still every
                        # shard, a small answer).  Both cycle the whole node
                        # list: ~2000 distinct texts, far more than the
                        # shards' 256-entry caches hold.
                        ops.append((kind, nodes[self._cursor % len(nodes)]))
                        self._cursor += 1
            rng.shuffle(ops)
            yield ops

    def execute(self, connection: int, op: Any) -> OpResult:
        kind, node = op
        op_id = self.new_op_id(connection)
        if kind == "insert":
            fresh = f"{node.split('_')[0]}_w{op_id}"
            payload: dict[str, Any] = dict(predicate="edge", action="insert", rows=[[node, fresh]])
            wire_op = "update"
        else:
            if kind == "pinned":
                text = f"?- ancestor({inputs.quoted(node)}, Y)."
            elif node:
                text = f"?- ancestor(X, {inputs.quoted(node)})."
            else:
                text = "?- ancestor(X, Y)."
            payload, wire_op = dict(q=text), "query"
        token, started = start_op(op_id)
        try:
            reply, timing = self.request(connection, wire_op, id=op_id, **payload)
        except Exception:
            return finished(op_id, kind, started, stop_op(token, started), False)
        latency = stop_op(token, started)
        if kind == "insert":
            self.graph.setdefault(node, []).append(fresh)
            for above in [node, *self.ancestors.get(node, ())]:
                self.closure.add((above, fresh))
            ok = reply["count"] == 1
        elif kind == "pinned":
            expected = frozenset((y,) for y in oracle.reachable(self.graph, node))
            ok = oracle.rows_match(reply["rows"], expected)
        elif node:
            expected = frozenset((x,) for x in self.ancestors.get(node, ()))
            ok = oracle.rows_match(reply["rows"], expected)
        else:
            ok = oracle.rows_match(reply["rows"], self.closure)
        return finished(op_id, kind, started, latency, ok, (timing,))

    def counters(self) -> dict[str, float]:
        stats = self.stats()
        totals: dict[str, float] = {}
        for shard, entry in stats["shards"].items():
            for name, value in _server_counters(entry["primary"]).items():
                totals[name] = totals.get(name, 0) + value
            totals[f"shard_requests.{shard}"] = entry["primary"]["metrics"]["counters"].get(
                "server.requests", 0
            )
        for name, value in stats["metrics"]["counters"].items():
            totals[name] = value
        return totals


def _server_counters(stats: dict[str, Any]) -> dict[str, float]:
    """Cache and admission counters of one server's ``stats`` payload."""
    pool = stats["pool"]
    cache = pool.get("cache", {})
    admission = pool["admission"]
    return {
        "cache.hits": cache.get("hits", 0),
        "cache.misses": cache.get("misses", 0),
        "cache.evictions": cache.get("evictions", 0),
        "admission.shed": admission["rejected_busy"] + admission["rejected_timeout"],
    }
