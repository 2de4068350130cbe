"""The routing front-end: one wire endpoint over N shards and their replicas.

The router is the second role of the protocol core
(:class:`~repro.server.service.LineServer`), so it speaks the *same*
line-oriented JSON protocol as a single shard — a client cannot tell a
cluster from one server — and implements
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

import threading
from contextlib import ExitStack, nullcontext
from dataclasses import asdict, dataclass, field
from typing import Any, ContextManager, Optional

from ..datalog.parser import parse_program
from ..errors import TestbedError
from ..obs.live.exporter import MetricSample, MetricsExporter
from ..server.client import DkbClient, ServerError, StaleReplicaError
from ..server.protocol import (
    PROTOCOL_VERSION,
    ErrorCode,
    ProtocolError,
    ok_reply,
)
# Not called here: the router's requests are decoded and encoded by the
# protocol core.  Kept as names of this module because the perf ledger's
# traced pass patches them here (``ledger/trace.py`` HOOKS).
from ..server.protocol import decode_line, encode_message  # noqa: F401
from ..server.service import LineServer
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
            gathered from the backends at scrape time (:meth:`ClusterRouter.stats`).
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


class _BackendBusy(TimeoutError):
    """Every pooled connection to a backend stayed in use for the wait."""


class _BackendPool:
    """Connections to the backends, shared by every router thread.

    Each connection to a shard server holds one of its reader sessions,
    busy or idle, so the pool lets at most ``readers`` requests at a time
    use a backend (:class:`~repro.cluster.shard.ShardAddresses`); one more
    waits here for a slot, not at the backend's admission, where no pooled
    connection would ever make room.  A slot takes an idle connection or
    opens one; the request runs outside the pool's lock.  A structured
    error reply returns the connection; a transport failure closes it.
    """

    def __init__(self, shards: tuple[ShardAddresses, ...], timeout: float) -> None:
        self.timeout = timeout
        self._slots = {
            address: threading.BoundedSemaphore(shard.readers)
            for shard in shards
            for address in (shard.primary, *shard.replicas)
        }
        self._lock = threading.Lock()
        self._idle: dict[tuple[str, int], list[DkbClient]] = {}  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    def request(
        self,
        address: tuple[str, int],
        op: str,
        payload: Optional[dict[str, Any]] = None,
        wait: Optional[float] = None,
    ) -> dict[str, Any]:
        """One request to ``address`` on a pooled (or new) connection.

        Waits up to ``wait`` seconds (default ``connect_timeout``) for a
        slot, then raises :class:`_BackendBusy`.  A timeout, a socket error,
        or a truncated or mismatched reply leaves the connection's stream
        unusable (a timed-out socket file refuses every later read), so the
        connection is closed, not returned.  So is one refused with
        ``SERVER_BUSY``: that is how a backend turns a connection away at
        admission, closing it after the reply.
        """
        slot = self._slots[address]
        wait = self.timeout if wait is None else wait
        if not slot.acquire(timeout=wait):
            raise _BackendBusy(f"no connection to {address} came free within {wait}s")
        client: Optional[DkbClient] = None
        keep = False
        try:
            with self._lock:
                if self._idle.get(address):
                    client = self._idle[address].pop()
            if client is None:
                client = DkbClient(address[0], address[1], timeout=self.timeout)
            reply = client.request(op, **(payload or {}))
            keep = True
        except ServerError as error:
            keep = error.code != ErrorCode.SERVER_BUSY
            raise
        finally:
            with self._lock:
                if keep and client is not None and not self._closed:
                    self._idle.setdefault(address, []).append(client)
                    client = None
            if client is not None:
                _discard(client)
            slot.release()
        return reply

    def close(self) -> None:
        """Close every idle connection; one in use is closed on return."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, {}
        for clients in idle.values():
            for client in clients:
                _discard(client)


def _discard(client: DkbClient) -> None:
    try:
        client.close()
    except OSError:  # pragma: no cover - close is best-effort
        pass


class ClusterRouter(LineServer):
    """The cluster's front door: the router role of the protocol core.

    A client connection's context is its read-my-writes floors (shard ->
    lowest version its reads may be served at); every connection, ``stats``
    and the ``/metrics`` scrape share one backend pool.  Use as a context
    manager or start/close.
    """

    kind = "router"
    series = (
        "router.writes",
        "router.pinned_reads",
        "router.any_reads",
        "router.fanout_reads",
        "router.stale_fallbacks",
        "router.backend_failures",
    )

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        self.partitioner = config.partitioner
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
        self.backends = _BackendPool(config.shards, config.connect_timeout)
        super().__init__(config.host, config.port, config.metrics_port)

    def _open(self, opened: ExitStack) -> None:
        opened.callback(self.backends.close)

    def _export(self, exporter: MetricsExporter) -> MetricsExporter:
        return exporter.add_source(self.metrics, {"role": "router"}).add_collector(
            self._cluster_samples
        )

    def connection(self) -> ContextManager[dict[int, int]]:
        """A fresh read-my-writes floor map for one client connection."""
        return nullcontext({})

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
        self, shard: int, floors: dict[int, int]
    ) -> Optional[int]:
        """The version floor a read on ``shard`` must satisfy, if any."""
        policy = self.config.read_policy
        bounds: list[int] = []
        if policy.read_my_writes:
            token = floors.get(shard)
            if token is not None:
                bounds.append(token)
        if policy.max_lag is not None:
            bounds.append(
                max(0, self.witnessed_version(shard) - policy.max_lag)
            )
        return max(bounds) if bounds else None

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
        self, message: dict[str, Any], floors: dict[int, int]
    ) -> dict[str, Any]:
        """Serve one validated request; returns the success reply."""
        op = message["op"]
        request_id = message.get("id")
        if op == "ping":
            return self._dispatch_ping(request_id)
        if op == "query":
            return self._dispatch_query(message, floors)
        if op == "update":
            return self._dispatch_update(message, floors)
        if op == "define":
            self._vet_define(message)
            return self._fanout_write(message, floors, count_key="added")
        if op == "materialize":
            return self._fanout_write(message, floors, count_key="count")
        if op == "lint":
            # The rule base is identical on every shard; any one can lint.
            reply = self.backends.request(
                self._read_backend(self._any_shard()), "lint", {"q": message.get("q")}
            )
            return ok_reply(request_id, diagnostics=reply["diagnostics"])
        if op == "stats":
            return ok_reply(request_id, stats=self.stats())
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

    def _dispatch_ping(self, request_id: Any) -> dict[str, Any]:
        """Ping every primary: the authoritative per-shard version map."""
        versions: dict[str, int] = {}
        for shard in self.partitioner.all_shards():
            reply = self.backends.request(self.config.shards[shard].primary, "ping")
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
        floors: dict[int, int],
    ) -> dict[str, Any]:
        """One shard-local read honouring the staleness policy.

        Tries the policy's preferred backend with the computed version
        floor; a ``STALE_REPLICA`` refusal falls back to the shard primary
        (which always satisfies any floor a committed write produced).
        Connection failures towards a replica also fail over to the
        primary rather than surfacing to the client.
        """
        payload: dict[str, Any] = {"shard": shard}
        for key in (
            "q", "bindings", "strategy", "optimize", "use_views", "use_cache"
        ):
            if key in message:
                payload[key] = message[key]
        floor = self._floor_for(shard, floors)
        explicit = message.get("min_version")
        if explicit is not None:
            floor = explicit if floor is None else max(floor, explicit)
        if floor is not None and floor > 0:
            payload["min_version"] = floor
        backend = self._read_backend(shard)
        primary = self.config.shards[shard].primary
        if backend != primary:
            try:
                reply = self.backends.request(backend, "query", payload)
                self.witness(shard, reply.get("version"))
                return reply
            except StaleReplicaError:
                self.metrics.counter("router.stale_fallbacks").inc()
            except OSError:
                self.metrics.counter("router.backend_failures").inc()
        reply = self.backends.request(primary, "query", payload)
        self.witness(shard, reply.get("version"))
        return reply

    def _dispatch_query(
        self, message: dict[str, Any], floors: dict[int, int]
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
            (shard, self._read_one(shard, message, floors))
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
        floors: dict[int, int],
        message: dict[str, Any],
    ) -> dict[str, Any]:
        """One write on ``shard``'s primary, floors and versions updated."""
        payload = {
            key: value for key, value in message.items() if key not in ("op", "id")
        }
        payload["shard"] = shard
        reply = self.backends.request(
            self.config.shards[shard].primary, message["op"], payload
        )
        version = reply.get("version")
        self.witness(shard, version)
        if isinstance(version, int):
            previous = floors.get(shard, 0)
            floors[shard] = max(previous, version)
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
        self, message: dict[str, Any], floors: dict[int, int]
    ) -> dict[str, Any]:
        predicate = message["predicate"]
        slices = self.partitioner.split_update(predicate, message["rows"])
        if not slices:
            # No shard writes, so no version moves: answer with what the
            # router has witnessed, as a single server answers its own.
            witnessed = {
                str(shard): self.witnessed_version(shard)
                for shard in self.partitioner.all_shards()
            }
            return ok_reply(
                message.get("id"),
                count=0,
                version=min(witnessed.values()),
                versions=witnessed,
            )
        self._ensure_schema_everywhere(message, slices)
        broadcast = self.partitioner.spec.is_broadcast(predicate)
        counts: list[int] = []
        versions: dict[str, int] = {}
        for shard in sorted(slices):
            sliced = dict(message)
            sliced["rows"] = [list(row) for row in slices[shard]]
            reply = self._apply_write(shard, floors, sliced)
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
        floors: dict[int, int],
        count_key: str,
    ) -> dict[str, Any]:
        """Apply one rule-base write (define/materialize) on every shard."""
        replies = {
            shard: self._apply_write(shard, floors, message)
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

    def _ask(
        self, address: tuple[str, int], op: str
    ) -> tuple[str, Optional[dict[str, Any]]]:
        """One stats-walk request, which never waits for a busy backend.

        Returns ``("up", reply)``; ``("busy", None)`` when every pooled
        connection to the backend is serving a request or it refused a new
        one at admission; ``("down", None)`` when it could not be reached.
        """
        try:
            return "up", self.backends.request(address, op, wait=0)
        except _BackendBusy:
            return "busy", None
        except ServerError as error:
            return ("busy" if error.code == ErrorCode.SERVER_BUSY else "down"), None
        except (ProtocolError, OSError):
            return "down", None

    def stats(self) -> dict[str, Any]:
        """Router metrics plus one round over every backend: each shard
        primary's ``stats`` (witnessing its version) and each replica's
        watermark, with each backend's state (``up``, ``busy``, ``down``);
        ``None`` where the backend was not read."""
        shards: dict[str, Any] = {}
        for shard in self.partitioner.all_shards():
            addresses = self.config.shards[shard]
            state, primary = self._ask(addresses.primary, "stats")
            if primary is not None:
                self.witness(shard, primary["stats"]["pool"]["version"])
            replicas = []
            for address in addresses.replicas:
                replica_state, reply = self._ask(address, "ping")
                replicas.append(
                    {
                        "address": list(address),
                        "state": replica_state,
                        "watermark": None if reply is None else int(reply["version"]),
                    }
                )
            shards[str(shard)] = {
                "primary": None if primary is None else primary["stats"],
                "primary_state": state,
                "primary_version": self.witnessed_version(shard),
                "replicas": replicas,
            }
        return {
            **super().stats(),
            "router": True,
            "read_policy": asdict(self.config.read_policy),
            "partition": self.partitioner.spec.to_dict(),
            "shards": shards,
        }

    def _cluster_samples(self) -> "list[MetricSample]":
        """Per-shard cluster samples for the /metrics page, from :meth:`stats`.

        Replica **lag** is the distance from the shard's witnessed version
        to the replica's watermark — the page a dashboard alerts on.
        Unreachable backends degrade to an ``up 0`` sample rather than
        failing the whole scrape; a busy one reads ``up 1`` with no
        watermark.
        """
        samples: list[MetricSample] = []
        for shard, entry in self.stats()["shards"].items():
            labels = {"shard": shard}
            witnessed = entry["primary_version"]
            samples += [
                MetricSample(
                    "cluster.primary.up",
                    float(entry["primary_state"] != "down"),
                    labels,
                ),
                MetricSample(
                    "cluster.shard.version",
                    float(witnessed),
                    labels,
                    help="highest D/KB version witnessed per shard",
                ),
            ]
            for index, replica in enumerate(entry["replicas"]):
                rlabels = {**labels, "replica": str(index)}
                watermark = replica["watermark"]
                samples.append(
                    MetricSample(
                        "cluster.replica.up",
                        float(replica["state"] != "down"),
                        rlabels,
                    )
                )
                if watermark is not None:
                    samples += [
                        MetricSample(
                            "cluster.replica.watermark", float(watermark), rlabels
                        ),
                        MetricSample(
                            "cluster.replica.lag",
                            float(max(0, witnessed - watermark)),
                            rlabels,
                            help="versions behind the shard's witnessed version",
                        ),
                    ]
        return samples


__all__ = ["ClusterRouter", "ReadPolicy", "RouterConfig"]
