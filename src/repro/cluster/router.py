"""The routing front-end: one wire endpoint over N shards and their replicas.

The router speaks the *same* line-oriented JSON protocol as a single
shard — a client cannot tell a cluster from one server — and implements
the distribution rules on top of the :class:`~repro.cluster.partition.
Partitioner`:

* **pinned queries** (a bound routing-key argument) go to one backend of
  the owning shard — a replica when the read policy allows, the primary
  otherwise;
* **unpinned queries** scatter to every shard and the per-shard answers
  are set-union merged (gather);
* **updates** are split by hash and serialized through each owning
  shard's single writer; broadcast relations and rule definitions fan out
  to all primaries;
* **staleness is bounded, not accidental**: every replica read carries a
  version floor — the connection's read-your-writes token and/or the
  ``max_lag`` distance from the newest version the router has *witnessed*
  — and a replica that cannot satisfy the floor answers ``STALE_REPLICA``,
  upon which the router retries on the primary.  The client just sees a
  slightly slower correct answer.

Version bookkeeping: the router never invents versions.  It remembers, per
shard, the highest version any backend reply carried (witnessed versions)
and, per client connection, the versions that connection's own writes
produced (read-my-writes floors).
"""

from __future__ import annotations

import socketserver
import threading
import time
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Optional

from ..datalog.parser import parse_program
from ..errors import ParseError, TestbedError
from ..obs.live.exporter import MetricSample, MetricsExporter
from ..obs.metrics import REQUEST_SECONDS_BUCKETS, MetricsRegistry
from ..server.client import DkbClient, ServerError, StaleReplicaError
from ..server.protocol import (
    PROTOCOL_VERSION,
    ErrorCode,
    ProtocolError,
    decode_line,
    encode_message,
    error_reply,
    ok_reply,
    validate_request,
)
from .partition import ANY, Partitioner, merge_rows
from .shard import ShardAddresses
from .speclint import partition_errors


@dataclass(frozen=True)
class ReadPolicy:
    """Where reads run and how stale they may be.

    Attributes:
        prefer_replica: serve pinned/scattered reads from shard replicas
            when the shard has any (primaries otherwise).
        max_lag: bound, in D/KB versions, on how far behind the newest
            *witnessed* version a replica read may be; ``None`` = any
            committed snapshot is acceptable.
        read_my_writes: reads on a connection never run below the versions
            of that connection's own earlier writes (per-shard floor
            tokens).
    """

    prefer_replica: bool = True
    max_lag: Optional[int] = None
    read_my_writes: bool = True

    def __post_init__(self) -> None:
        if self.max_lag is not None and self.max_lag < 0:
            raise ValueError(f"max_lag must be >= 0, got {self.max_lag}")


@dataclass(frozen=True)
class RouterConfig:
    """Everything a :class:`ClusterRouter` needs to boot.

    Attributes:
        partitioner: the routing logic (carries the PartitionSpec).
        shards: bound addresses of every shard, indexed by shard id.
        host, port: the router's own bind address.
        read_policy: replica usage and staleness bounds.
        connect_timeout: socket timeout towards backends, seconds.
        metrics_port: serve Prometheus ``/metrics`` on this side port
            (``0`` = ephemeral; ``None`` = no exporter).  The page carries
            the router's own counters plus per-shard cluster samples —
            witnessed versions, replica watermarks, and replica *lag* —
            gathered by pinging the backends at scrape time.
    """

    partitioner: Partitioner
    shards: tuple[ShardAddresses, ...]
    host: str = "127.0.0.1"
    port: int = 0
    read_policy: ReadPolicy = field(default_factory=ReadPolicy)
    connect_timeout: float = 30.0
    metrics_port: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.shards) != self.partitioner.shards:
            raise ValueError(
                f"partitioner expects {self.partitioner.shards} shards, "
                f"got addresses for {len(self.shards)}"
            )
        for index, shard in enumerate(self.shards):
            if shard.shard_id != index:
                raise ValueError(
                    f"shard address {index} carries shard_id {shard.shard_id}"
                )


class _BackendPool:
    """One connection per backend address, owned by one handler thread."""

    def __init__(self, timeout: float) -> None:
        self.timeout = timeout
        self._clients: dict[tuple[str, int], DkbClient] = {}

    def client(self, address: tuple[str, int]) -> DkbClient:
        client = self._clients.get(address)
        if client is None:
            client = DkbClient(address[0], address[1], timeout=self.timeout)
            self._clients[address] = client
        return client

    def request(
        self, address: tuple[str, int], op: str, **payload: Any
    ) -> dict[str, Any]:
        """One request to ``address``, dropping its client on a transport
        failure.

        A timeout, a socket error, or a truncated or mismatched reply leaves
        the connection's stream unusable (a timed-out socket file refuses
        every later read), so the next request to ``address`` reconnects.
        A structured error reply leaves the connection as it was.
        """
        client = self.client(address)
        try:
            return client.request(op, **payload)
        except (OSError, ProtocolError):
            self.drop(address)
            raise

    def drop(self, address: tuple[str, int]) -> None:
        client = self._clients.pop(address, None)
        if client is not None:
            try:
                client.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def close(self) -> None:
        for address in list(self._clients):
            self.drop(address)


class _RouterHandler(socketserver.StreamRequestHandler):
    """One client connection: route line requests until EOF."""

    server: "_RouterTcpServer"

    def setup(self) -> None:
        super().setup()
        self.backends = _BackendPool(self.server.router.config.connect_timeout)
        # Read-my-writes floor tokens: shard -> lowest version this
        # connection's reads may be served at.
        self.write_floors: dict[int, int] = {}

    def finish(self) -> None:
        self.backends.close()
        super().finish()

    def handle(self) -> None:
        router = self.server.router
        while True:
            try:
                line = self.rfile.readline()
            except (ConnectionResetError, BrokenPipeError, OSError):
                return
            if not line:
                return
            if not line.strip():
                continue
            started = time.perf_counter()
            request_id: Any = None
            try:
                message = decode_line(line)
                request_id = message.get("id")
                validate_request(message)
                reply = router.dispatch(message, self)
                reply["id"] = request_id
            except ProtocolError as error:
                reply = error_reply(
                    request_id, error.code, error.message, error.details
                )
            except ServerError as error:
                # A backend refusal the router could not absorb — forward
                # the structured code unchanged.
                reply = error_reply(
                    request_id, error.code, error.message, error.details
                )
            except ParseError as error:
                reply = error_reply(request_id, ErrorCode.BAD_REQUEST, str(error))
            except TimeoutError as error:
                reply = error_reply(
                    request_id,
                    ErrorCode.TIMEOUT,
                    f"backend did not reply in time: {error}",
                )
            except ConnectionError as error:
                reply = error_reply(
                    request_id,
                    ErrorCode.INTERNAL,
                    f"backend unreachable: {error}",
                )
            except Exception as error:  # pragma: no cover - defensive
                reply = error_reply(
                    request_id,
                    ErrorCode.INTERNAL,
                    f"{type(error).__name__}: {error}",
                )
            router.metrics.counter("router.requests").inc()
            if not reply.get("ok"):
                router.metrics.counter("router.errors").inc()
            router.metrics.histogram(
                "router.request_seconds", REQUEST_SECONDS_BUCKETS
            ).observe(time.perf_counter() - started)
            try:
                wfile: BinaryIO = self.wfile
                wfile.write(encode_message(reply))
                wfile.flush()
            except (BrokenPipeError, ConnectionResetError, OSError):
                return


class _RouterTcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    router: "ClusterRouter"


class ClusterRouter:
    """The cluster's front door; use as a context manager or start/close."""

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        self.partitioner = config.partitioner
        self.metrics = MetricsRegistry()
        # Highest version witnessed per shard, from any backend reply.
        self._versions: dict[int, int] = {}  # guarded-by: _versions_lock
        self._versions_lock = threading.Lock()
        # Round-robin cursors: replica choice per shard, any-shard reads.
        self._cursor_lock = threading.Lock()
        self._replica_cursor: dict[int, int] = {}  # guarded-by: _cursor_lock
        self._any_cursor = 0  # guarded-by: _cursor_lock
        # Partitioned relations whose schema exists on *every* shard: the
        # first insert of each fans an empty typed slice to non-owners so
        # shard-local evaluation sees an empty relation, not a missing one.
        self._ensured: set[str] = set()  # guarded-by: _ensured_lock
        self._ensured_lock = threading.Lock()
        self._tcp = _RouterTcpServer((config.host, config.port), _RouterHandler)
        self._tcp.router = self
        self._thread: Optional[threading.Thread] = None
        self._serving = False  # not-shared: set before any serve loop runs
        self.started_at = time.time()
        # The /metrics side port: the exporter's scrape threads share one
        # backend pool, serialized by a lock (scrapes are rare; one ping
        # round per scrape is fine).
        self.exporter: Optional[MetricsExporter] = None
        self._scrape_lock = threading.Lock()
        self._scrape_backends = _BackendPool(  # guarded-by: _scrape_lock
            config.connect_timeout
        )
        if config.metrics_port is not None:
            # Touch the lazily-created counters so every family shows up
            # on the very first scrape (a dashboard should see a zero
            # series, not a missing one).
            for name in (
                "router.requests",
                "router.errors",
                "router.writes",
                "router.pinned_reads",
                "router.any_reads",
                "router.fanout_reads",
                "router.stale_fallbacks",
                "router.backend_failures",
            ):
                self.metrics.counter(name)
            try:
                self.exporter = (
                    MetricsExporter(config.host, config.metrics_port)
                    .add_source(self.metrics, {"role": "router"})
                    .add_collector(self._cluster_samples)
                    .start()
                )
            except BaseException:
                self._tcp.server_close()  # do not leak the bound socket
                raise

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    def start(self) -> "ClusterRouter":
        if self._thread is not None:
            raise RuntimeError("router already started")
        self._serving = True
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="dkb-router",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._serving = True
        self._tcp.serve_forever(poll_interval=0.05)

    def close(self) -> None:
        # shutdown() waits for a running serve loop: only ask it of a
        # router that was started.
        if self._serving:
            self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self.exporter is not None:
            self.exporter.close()
        with self._scrape_lock:
            self._scrape_backends.close()

    def __enter__(self) -> "ClusterRouter":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- version bookkeeping ----------------------------------------------

    def witness(self, shard: int, version: Any) -> None:
        """Record the highest version seen in a reply from ``shard``."""
        if not isinstance(version, int):
            return
        with self._versions_lock:
            if version > self._versions.get(shard, -1):
                self._versions[shard] = version

    def witnessed_version(self, shard: int) -> int:
        with self._versions_lock:
            return self._versions.get(shard, 0)

    def _floor_for(
        self, shard: int, handler: _RouterHandler
    ) -> Optional[int]:
        """The version floor a read on ``shard`` must satisfy, if any."""
        policy = self.config.read_policy
        floors: list[int] = []
        if policy.read_my_writes:
            token = handler.write_floors.get(shard)
            if token is not None:
                floors.append(token)
        if policy.max_lag is not None:
            floors.append(
                max(0, self.witnessed_version(shard) - policy.max_lag)
            )
        return max(floors) if floors else None

    # -- backend selection -------------------------------------------------

    def _read_backend(self, shard: int) -> tuple[str, int]:
        """The backend a read on ``shard`` should try first."""
        addresses = self.config.shards[shard]
        if self.config.read_policy.prefer_replica and addresses.replicas:
            with self._cursor_lock:
                cursor = self._replica_cursor.get(shard, 0)
                self._replica_cursor[shard] = cursor + 1
            return addresses.replicas[cursor % len(addresses.replicas)]
        return addresses.primary

    def _any_shard(self) -> int:
        with self._cursor_lock:
            shard = self._any_cursor % self.partitioner.shards
            self._any_cursor += 1
        return shard

    # -- request dispatch --------------------------------------------------

    def dispatch(
        self, message: dict[str, Any], handler: _RouterHandler
    ) -> dict[str, Any]:
        """Serve one validated request; returns the success reply."""
        op = message["op"]
        request_id = message.get("id")
        if op == "ping":
            return self._dispatch_ping(request_id, handler)
        if op == "query":
            return self._dispatch_query(message, handler)
        if op == "update":
            return self._dispatch_update(message, handler)
        if op == "define":
            self._vet_define(message)
            return self._fanout_write(message, handler, count_key="added")
        if op == "materialize":
            return self._fanout_write(message, handler, count_key="count")
        if op == "lint":
            # The rule base is identical on every shard; any one can lint.
            reply = handler.backends.request(
                self._read_backend(self._any_shard()), "lint", q=message.get("q")
            )
            return ok_reply(request_id, diagnostics=reply["diagnostics"])
        if op == "stats":
            return ok_reply(request_id, stats=self.stats(handler))
        raise ProtocolError(ErrorCode.BAD_REQUEST, f"unknown op {op!r}")

    def _vet_define(self, message: dict[str, Any]) -> None:
        """Reject rule bases the partition lints (DK10x) prove unroutable.

        Raises:
            ProtocolError: ``UNROUTABLE_RULES`` when an error-severity
                DK10x finding means no shard could evaluate the rules
                soundly under this partition spec.  (Parse errors pass
                through — the shard-side define reports them with full
                context.)
        """
        try:
            program = parse_program(message["program"])
        except TestbedError:
            return
        findings = partition_errors(program, self.partitioner.spec)
        if findings is not None:
            raise ProtocolError(
                ErrorCode.UNROUTABLE_RULES,
                f"rule base fails partition lints: {findings}",
            )

    def _dispatch_ping(
        self, request_id: Any, handler: _RouterHandler
    ) -> dict[str, Any]:
        """Ping every primary: the authoritative per-shard version map."""
        versions: dict[str, int] = {}
        for shard in self.partitioner.all_shards():
            reply = handler.backends.request(self.config.shards[shard].primary, "ping")
            self.witness(shard, reply.get("version"))
            versions[str(shard)] = int(reply["version"])
        return ok_reply(
            request_id,
            pong=True,
            protocol=PROTOCOL_VERSION,
            router=True,
            shards=self.partitioner.shards,
            versions=versions,
        )

    # -- reads -------------------------------------------------------------

    def _read_one(
        self,
        shard: int,
        message: dict[str, Any],
        handler: _RouterHandler,
    ) -> dict[str, Any]:
        """One shard-local read honouring the staleness policy.

        Tries the policy's preferred backend with the computed version
        floor; a ``STALE_REPLICA`` refusal falls back to the shard primary
        (which always satisfies any floor a committed write produced).
        Connection failures towards a replica also fail over to the
        primary rather than surfacing to the client.
        """
        payload = {
            key: message[key]
            for key in (
                "q", "bindings", "strategy", "optimize", "use_views",
                "use_cache",
            )
            if key in message
        }
        floor = self._floor_for(shard, handler)
        explicit = message.get("min_version")
        if explicit is not None:
            floor = explicit if floor is None else max(floor, explicit)
        if floor is not None and floor > 0:
            payload["min_version"] = floor
        backend = self._read_backend(shard)
        primary = self.config.shards[shard].primary
        if backend != primary:
            try:
                reply = handler.backends.request(
                    backend, "query", shard=shard, **payload
                )
                self.witness(shard, reply.get("version"))
                return reply
            except StaleReplicaError:
                self.metrics.counter("router.stale_fallbacks").inc()
            except OSError:
                self.metrics.counter("router.backend_failures").inc()
        reply = handler.backends.request(primary, "query", shard=shard, **payload)
        self.witness(shard, reply.get("version"))
        return reply

    def _dispatch_query(
        self, message: dict[str, Any], handler: _RouterHandler
    ) -> dict[str, Any]:
        route = self.partitioner.route(message["q"])
        if route.is_pinned:
            shards = [route.shard]
            self.metrics.counter("router.pinned_reads").inc()
        elif route.kind == ANY:
            shards = [self._any_shard()]
            self.metrics.counter("router.any_reads").inc()
        else:
            shards = list(self.partitioner.all_shards())
            self.metrics.counter("router.fanout_reads").inc()
        replies = [
            (shard, self._read_one(shard, message, handler))
            for shard in shards
        ]
        rows = merge_rows(reply["rows"] for _, reply in replies)
        versions = {
            str(shard): int(reply["version"]) for shard, reply in replies
        }
        return ok_reply(
            message.get("id"),
            rows=rows,
            count=len(rows),
            version=min(versions.values()),
            versions=versions,
            shards=[shard for shard, _ in replies],
            cached=all(reply.get("cached", False) for _, reply in replies),
            answered_from_view=all(
                reply.get("answered_from_view", False) for _, reply in replies
            ),
            seconds=sum(reply.get("seconds", 0.0) for _, reply in replies),
        )

    # -- writes ------------------------------------------------------------

    def _apply_write(
        self,
        shard: int,
        handler: _RouterHandler,
        message: dict[str, Any],
    ) -> dict[str, Any]:
        """One write on ``shard``'s primary, floors and versions updated."""
        reply = handler.backends.request(
            self.config.shards[shard].primary,
            message["op"],
            shard=shard,
            **{
                key: value
                for key, value in message.items()
                if key not in ("op", "id", "shard")
            },
        )
        version = reply.get("version")
        self.witness(shard, version)
        if isinstance(version, int):
            previous = handler.write_floors.get(shard, 0)
            handler.write_floors[shard] = max(previous, version)
        return reply

    def _ensure_schema_everywhere(
        self, message: dict[str, Any], slices: dict[int, list[tuple]]
    ) -> None:
        """Widen the first insert of a relation to every shard.

        Non-owner shards get an empty slice carrying the batch's inferred
        column types, which creates the relation's schema there — a shard
        owning none of a partitioned relation's rows must still evaluate
        rules that read it (against an empty extent).  One-time per
        predicate per router; later inserts touch only owning shards.
        """
        predicate = message["predicate"]
        if message["action"] != "insert" or len(slices) == self.partitioner.shards:
            with self._ensured_lock:
                self._ensured.add(predicate)
            return
        with self._ensured_lock:
            if predicate in self._ensured:
                return
            self._ensured.add(predicate)
        rows = message["rows"]
        if "types" not in message and rows:
            message["types"] = [
                "INTEGER"
                if isinstance(value, int) and not isinstance(value, bool)
                else "TEXT"
                for value in rows[0]
            ]
        for shard in self.partitioner.all_shards():
            slices.setdefault(shard, [])

    def _dispatch_update(
        self, message: dict[str, Any], handler: _RouterHandler
    ) -> dict[str, Any]:
        predicate = message["predicate"]
        slices = self.partitioner.split_update(predicate, message["rows"])
        if not slices:
            return ok_reply(message.get("id"), count=0, versions={})
        self._ensure_schema_everywhere(message, slices)
        broadcast = self.partitioner.spec.is_broadcast(predicate)
        counts: list[int] = []
        versions: dict[str, int] = {}
        for shard in sorted(slices):
            sliced = dict(message)
            sliced["rows"] = [list(row) for row in slices[shard]]
            reply = self._apply_write(shard, handler, sliced)
            counts.append(int(reply.get("count", 0)))
            versions[str(shard)] = int(reply["version"])
        # A broadcast write applies the same batch everywhere: report one
        # copy, not the sum over shards.
        count = counts[0] if broadcast else sum(counts)
        self.metrics.counter("router.writes").inc()
        return ok_reply(
            message.get("id"),
            count=count,
            version=min(versions.values()),
            versions=versions,
            shards=sorted(slices),
        )

    def _fanout_write(
        self,
        message: dict[str, Any],
        handler: _RouterHandler,
        count_key: str,
    ) -> dict[str, Any]:
        """Apply one rule-base write (define/materialize) on every shard."""
        replies = {
            shard: self._apply_write(shard, handler, message)
            for shard in self.partitioner.all_shards()
        }
        versions = {
            str(shard): int(reply["version"])
            for shard, reply in replies.items()
            if isinstance(reply.get("version"), int)
        }
        first = replies[0]
        self.metrics.counter("router.writes").inc()
        return ok_reply(
            message.get("id"),
            **{count_key: first.get(count_key, 0)},
            version=min(versions.values()) if versions else 0,
            versions=versions,
        )

    # -- live observability ------------------------------------------------

    def _cluster_samples(self) -> "list[MetricSample]":
        """Per-shard cluster samples for the /metrics page.

        One ping round per scrape: every shard primary (refreshing the
        witnessed version) and every replica (its watermark).  Replica
        **lag** is the distance from the shard's witnessed version to the
        replica's watermark — the page a dashboard alerts on.  Unreachable
        backends degrade to an ``up 0`` sample rather than failing the
        whole scrape.
        """
        samples: list[MetricSample] = []
        with self._scrape_lock:
            for shard in self.partitioner.all_shards():
                addresses = self.config.shards[shard]
                labels = {"shard": str(shard)}
                try:
                    reply = self._scrape_backends.client(
                        addresses.primary
                    ).ping()
                    self.witness(shard, reply.get("version"))
                    samples.append(
                        MetricSample("cluster.primary.up", 1.0, labels)
                    )
                except (ServerError, ConnectionError, OSError):
                    self._scrape_backends.drop(addresses.primary)
                    samples.append(
                        MetricSample("cluster.primary.up", 0.0, labels)
                    )
                witnessed = self.witnessed_version(shard)
                samples.append(
                    MetricSample(
                        "cluster.shard.version",
                        float(witnessed),
                        labels,
                        help="highest D/KB version witnessed per shard",
                    )
                )
                for index, address in enumerate(addresses.replicas):
                    rlabels = dict(labels)
                    rlabels["replica"] = str(index)
                    try:
                        reply = self._scrape_backends.client(address).ping()
                        watermark = int(reply["version"])
                    except (ServerError, ConnectionError, OSError):
                        self._scrape_backends.drop(address)
                        samples.append(
                            MetricSample("cluster.replica.up", 0.0, rlabels)
                        )
                        continue
                    samples.append(
                        MetricSample("cluster.replica.up", 1.0, rlabels)
                    )
                    samples.append(
                        MetricSample(
                            "cluster.replica.watermark",
                            float(watermark),
                            rlabels,
                        )
                    )
                    samples.append(
                        MetricSample(
                            "cluster.replica.lag",
                            float(max(0, witnessed - watermark)),
                            rlabels,
                            help="versions behind the shard's witnessed "
                            "version",
                        )
                    )
        return samples

    # -- introspection -----------------------------------------------------

    def stats(self, handler: _RouterHandler) -> dict[str, Any]:
        """Router metrics plus the per-shard primary/replica stats."""
        shards: dict[str, Any] = {}
        for shard in self.partitioner.all_shards():
            addresses = self.config.shards[shard]
            primary = handler.backends.request(addresses.primary, "stats")
            replicas = []
            for address in addresses.replicas:
                try:
                    reply = handler.backends.request(address, "ping")
                    replicas.append(
                        {
                            "address": list(address),
                            "watermark": int(reply["version"]),
                        }
                    )
                except (ServerError, OSError):
                    replicas.append({"address": list(address), "watermark": None})
            shards[str(shard)] = {
                "primary": primary["stats"],
                "primary_version": self.witnessed_version(shard),
                "replicas": replicas,
            }
        return {
            "protocol": PROTOCOL_VERSION,
            "router": True,
            "uptime_seconds": time.time() - self.started_at,
            "read_policy": {
                "prefer_replica": self.config.read_policy.prefer_replica,
                "max_lag": self.config.read_policy.max_lag,
                "read_my_writes": self.config.read_policy.read_my_writes,
            },
            "partition": self.partitioner.spec.to_dict(),
            "metrics": self.metrics.snapshot(),
            "shards": shards,
        }


__all__ = ["ClusterRouter", "ReadPolicy", "RouterConfig"]
