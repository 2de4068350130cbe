"""The concurrent query server: a threaded TCP service over a SessionPool.

Connection model (the classic RDBMS connection-slot discipline): a client
connection checks one reader session out of the pool for its whole
lifetime, so ``readers`` bounds the number of simultaneously *connected*
clients, and admission control (bounded wait queue + ``SERVER_BUSY``
shedding) governs the connect path.  Requests on an admitted connection
then run one at a time in that connection's handler thread.

Updates do not consume the connection's reader session — they funnel
through the pool's single writer under the writer lock, each bumping the
persistent D/KB version (see :mod:`repro.server.pool`).
"""

from __future__ import annotations

import socketserver
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Optional

from ..errors import ParseError, TestbedError
from ..km.partition import PartitionSpec
from ..km.policy import DEFAULT_OPTIMIZE
from ..obs.live.exporter import MetricsExporter
from ..obs.metrics import REQUEST_SECONDS_BUCKETS, MetricsRegistry
from ..runtime.program import DEFAULT_STRATEGY, LfpStrategy
from .admission import AdmissionError
from .cache import VersionedResultCache
from .pool import ReaderSession, SessionPool, StaleSnapshot
from .protocol import (
    PROTOCOL_VERSION,
    ErrorCode,
    ProtocolError,
    decode_line,
    encode_message,
    error_reply,
    ok_reply,
    validate_request,
)


@dataclass(frozen=True)
class ServerConfig:
    """Everything a :class:`DkbServer` needs to boot.

    Attributes:
        path: the shared SQLite file backing the D/KB.
        host: bind address (loopback by default — this is a testbed).
        port: bind port; ``0`` picks an ephemeral port (see
            :attr:`DkbServer.address` for the bound one).
        readers: reader sessions in the pool = max concurrent connections.
        max_waiters: connect attempts allowed to queue before shedding.
        session_timeout: seconds a connect attempt waits for a session.
        request_timeout: budget in seconds for evaluating a read that
            misses the result cache (``None`` = unbounded); once it is spent
            the read is answered with ``TIMEOUT``.
            :meth:`~repro.dbms.engine.Database.deadline` enforces it on the
            connection's own thread: it aborts the running SQLite statement
            and refuses to start another.  A cache hit is served without a
            budget.
        cache_size: result-cache capacity (entries); ``0`` disables the
            cache entirely.
        trace: open pooled sessions with structured tracing enabled.
        shard_id: this server's shard number inside a cluster (``None``
            for the single-node server).  When set, requests carrying a
            ``shard`` field that names a different shard are refused with
            the retryable ``WRONG_SHARD`` code, and updates into
            partitioned relations are hash-checked against ``partition``.
        partition: the cluster's partition metadata (for the ownership
            check and the sessions' TestbedConfig).
        role: ``"primary"`` serves reads and writes; a ``"replica"``
            (fed by snapshot copy) refuses every mutating op with
            ``WRONG_SHARD`` + a ``leader`` hint.
        leader: advertised ``(host, port)`` of this shard's primary —
            carried in ``STALE_REPLICA``/``WRONG_SHARD`` hints.
        replication_poll: the replica refresh cadence advertised as
            ``retry_after`` in ``STALE_REPLICA`` replies.
        metrics_port: serve Prometheus ``/metrics`` on this side port
            (``0`` = ephemeral; ``None`` = no exporter, no HTTP listener,
            zero added work on the serving path).
    """

    path: str
    host: str = "127.0.0.1"
    port: int = 0
    readers: int = 4
    max_waiters: int = 16
    session_timeout: float | None = 5.0
    request_timeout: float | None = 30.0
    cache_size: int = 256
    trace: bool = False
    shard_id: Optional[int] = None
    partition: Optional[PartitionSpec] = None
    role: str = "primary"
    leader: Optional[tuple[str, int]] = None
    replication_poll: float = 0.25
    metrics_port: Optional[int] = None

    pool_kwargs: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.role not in ("primary", "replica"):
            raise ValueError(f"role must be primary or replica: {self.role!r}")


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: check out a session, then serve line requests."""

    server: "_TcpServer"

    def handle(self) -> None:
        dkb = self.server.dkb
        try:
            with dkb.pool.reader(dkb.config.session_timeout) as session:
                dkb.metrics.counter("server.connections").inc()
                self._serve(session)
        except AdmissionError as error:
            dkb.metrics.counter("server.busy").inc()
            self._send(error_reply(None, error.code, str(error)))

    def _serve(self, session: ReaderSession) -> None:
        dkb = self.server.dkb
        while True:
            try:
                line = self.rfile.readline()
            except (ConnectionResetError, BrokenPipeError, OSError):
                return  # the client went away mid-read: a normal ending
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
                reply = dkb.dispatch(message, session)
                reply["id"] = request_id
            except ProtocolError as error:
                reply = error_reply(
                    request_id, error.code, error.message, error.details
                )
            except StaleSnapshot as error:
                reply = error_reply(
                    request_id,
                    ErrorCode.STALE_REPLICA,
                    str(error),
                    dkb.stale_details(error),
                )
            except AdmissionError as error:
                reply = error_reply(request_id, error.code, str(error))
            except ParseError as error:
                reply = error_reply(request_id, ErrorCode.BAD_REQUEST, str(error))
            except TestbedError as error:
                reply = error_reply(
                    request_id, ErrorCode.EVALUATION_ERROR, str(error)
                )
            except Exception as error:  # pragma: no cover - defensive
                reply = error_reply(
                    request_id,
                    ErrorCode.INTERNAL,
                    f"{type(error).__name__}: {error}",
                )
            elapsed = time.perf_counter() - started
            dkb.metrics.counter("server.requests").inc()
            if not reply.get("ok"):
                dkb.metrics.counter("server.errors").inc()
            dkb.metrics.histogram(
                "server.request_seconds", REQUEST_SECONDS_BUCKETS
            ).observe(elapsed)
            if not self._send(reply):
                return

    def _send(self, reply: dict[str, Any]) -> bool:
        try:
            wfile: BinaryIO = self.wfile
            wfile.write(encode_message(reply))
            wfile.flush()
            return True
        except (BrokenPipeError, ConnectionResetError, OSError):
            return False


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    dkb: "DkbServer"


class DkbServer:
    """The multi-session D/KBMS service.

    Owns the metrics registry, the versioned result cache, and the session
    pool; serves the wire protocol of :mod:`repro.server.protocol` on a TCP
    socket.  Use as a context manager, or call :meth:`start` / :meth:`close`.
    """

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.metrics = MetricsRegistry()
        self.cache: Optional[VersionedResultCache] = (
            VersionedResultCache(config.cache_size, metrics=self.metrics)
            if config.cache_size > 0
            else None
        )
        self.exporter: Optional[MetricsExporter] = None
        self._thread: Optional[threading.Thread] = None
        self._serving = False  # not-shared: set before any serve loop runs
        # Bind first; if anything after the bind fails, close what was
        # opened (socket, pool, exporter thread) before re-raising.
        with ExitStack() as opened:
            self._tcp = _TcpServer((config.host, config.port), _Handler)
            opened.callback(self._tcp.server_close)
            self._tcp.dkb = self
            self.pool = SessionPool(
                config.path,
                readers=config.readers,
                max_waiters=config.max_waiters,
                session_timeout=config.session_timeout,
                cache=self.cache,
                metrics=self.metrics,
                trace=config.trace,
                partition=config.partition,
                shard_index=config.shard_id,
                **config.pool_kwargs,
            )
            opened.callback(self.pool.close)
            if config.metrics_port is not None:
                # Touch the lazily-created series so the first scrape shows
                # each one at zero: a scraper's rate() over a series that
                # first appears at 1 never counts that first increment.
                for name in (
                    "server.requests",
                    "server.errors",
                    "server.busy",
                    "server.cache.hits",
                    "server.cache.misses",
                ):
                    self.metrics.counter(name)
                self.metrics.histogram(
                    "server.request_seconds", REQUEST_SECONDS_BUCKETS
                )
                self.exporter = (
                    MetricsExporter(config.host, config.metrics_port)
                    .add_source(self.metrics, self._identity())
                    .add_refresher(self._refresh_gauges)
                    .start()
                )
            opened.pop_all()
        self.started_at = time.time()

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` to the real port."""
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    def start(self) -> "DkbServer":
        """Serve in a background thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._serving = True
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="dkb-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (for ``python -m repro serve``)."""
        self._serving = True
        self._tcp.serve_forever(poll_interval=0.05)

    def close(self) -> None:
        """Stop accepting, join the serve thread, close the pool.

        ``shutdown()`` waits for a running serve loop, so it is only asked
        of a server that was started: closing one that never served
        returns at once.
        """
        if self._serving:
            self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self.exporter is not None:
            self.exporter.close()
        self.pool.close()

    def __enter__(self) -> "DkbServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _refresh_gauges(self) -> None:
        """Pre-scrape hook: mirror point-in-time state into gauges."""
        admission = self.pool.admission.snapshot()
        self.metrics.gauge("server.admission.in_use").set(
            float(admission["in_use"] or 0)
        )
        self.metrics.gauge("server.admission.waiting").set(
            float(admission["waiting"] or 0)
        )
        self.metrics.gauge("server.admission.slots").set(
            float(admission["slots"] or 0)
        )
        self.metrics.gauge("server.admission.max_waiters").set(
            float(admission["max_waiters"] or 0)
        )
        self.metrics.gauge("server.dkb_version").set(float(self.pool.version()))

    # -- request dispatch --------------------------------------------------

    # -- cluster helpers ---------------------------------------------------

    def stale_details(self, error: StaleSnapshot) -> dict[str, Any]:
        """The structured hint payload of a ``STALE_REPLICA`` reply."""
        details: dict[str, Any] = {
            "version": error.version,
            "min_version": error.min_version,
            "retry_after": self.config.replication_poll,
        }
        if self.config.leader is not None:
            details["leader"] = list(self.config.leader)
        return details

    def _check_shard(self, message: dict[str, Any]) -> None:
        """Refuse requests addressed to a different shard (retryable)."""
        target = message.get("shard")
        if target is None or self.config.shard_id is None:
            return
        if target != self.config.shard_id:
            raise ProtocolError(
                ErrorCode.WRONG_SHARD,
                f"request addressed to shard {target}, but this is "
                f"shard {self.config.shard_id}",
                {"shard": self.config.shard_id},
            )

    def _check_writable(self, op: str) -> None:
        """Replicas refuse every mutating op, pointing at the primary."""
        if self.config.role == "replica":
            details: dict[str, Any] = {}
            if self.config.shard_id is not None:
                details["shard"] = self.config.shard_id
            if self.config.leader is not None:
                details["leader"] = list(self.config.leader)
            raise ProtocolError(
                ErrorCode.WRONG_SHARD,
                f"op {op!r} needs the shard's writer, but this is a "
                "read-only replica",
                details,
            )

    def _identity(self) -> dict[str, Any]:
        """Shard-identity fields stamped onto replies inside a cluster."""
        if self.config.shard_id is None:
            return {}
        return {"shard": self.config.shard_id, "role": self.config.role}

    # -- ops ---------------------------------------------------------------

    def dispatch(
        self, message: dict[str, Any], session: ReaderSession
    ) -> dict[str, Any]:
        """Serve one validated request; returns the success reply."""
        op = message["op"]
        request_id = message.get("id")
        self._check_shard(message)
        if op in ("update", "define", "materialize"):
            self._check_writable(op)
        if op == "ping":
            return ok_reply(
                request_id,
                pong=True,
                protocol=PROTOCOL_VERSION,
                version=session.committed_version(),
                **self._identity(),
            )
        if op == "query":
            return self._dispatch_query(message, session)
        if op == "update":
            return self._dispatch_update(message)
        if op == "define":
            added = self.pool.define(message["program"])
            return ok_reply(
                request_id, added=added, version=self.pool.written_version()
            )
        if op == "materialize":
            count = self.pool.materialize(message["predicate"])
            return ok_reply(
                request_id, count=count, version=self.pool.written_version()
            )
        if op == "lint":
            report = session.lint(message.get("q"))
            return ok_reply(
                request_id,
                diagnostics=[
                    {
                        "code": d.code,
                        "severity": d.severity.value,
                        "message": d.message,
                        "predicate": d.predicate,
                    }
                    for d in report.diagnostics
                ],
            )
        if op == "stats":
            return ok_reply(request_id, stats=self.stats(session))
        raise ProtocolError(ErrorCode.BAD_REQUEST, f"unknown op {op!r}")

    def _dispatch_query(
        self, message: dict[str, Any], session: ReaderSession
    ) -> dict[str, Any]:
        strategy_name = message.get("strategy", DEFAULT_STRATEGY.value)
        try:
            strategy = LfpStrategy(strategy_name)
        except ValueError:
            known = ", ".join(s.value for s in LfpStrategy)
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"unknown strategy {strategy_name!r}; expected one of: {known}",
            ) from None
        result = session.query(
            message["q"],
            bindings=message.get("bindings"),
            strategy=strategy,
            optimize=message.get("optimize", DEFAULT_OPTIMIZE),
            use_views=message.get("use_views", True),
            use_cache=message.get("use_cache", True),
            timeout=self.config.request_timeout,
            min_version=message.get("min_version"),
        )
        return ok_reply(
            message.get("id"),
            rows=[list(row) for row in result.rows],
            count=len(result.rows),
            version=result.version,
            cached=result.cached,
            answered_from_view=result.answered_from_view,
            seconds=result.seconds,
            **self._identity(),
        )

    def _dispatch_update(self, message: dict[str, Any]) -> dict[str, Any]:
        predicate = message["predicate"]
        rows = [tuple(row) for row in message["rows"]]
        self._check_row_ownership(predicate, rows)
        if message["action"] == "insert":
            types = message.get("types")
            count = self.pool.load_facts(predicate, rows, types=types)
        else:
            count = self.pool.delete_facts(predicate, rows)
        return ok_reply(
            message.get("id"),
            count=count,
            version=self.pool.written_version(),
            **self._identity(),
        )

    def _check_row_ownership(
        self, predicate: str, rows: list[tuple]
    ) -> None:
        """Hash-check update rows against this shard's partition."""
        spec = self.config.partition
        shard = self.config.shard_id
        if spec is None or shard is None or not spec.is_partitioned(predicate):
            return
        for row in rows:
            owner = spec.shard_of_row(predicate, row)
            if owner != shard:
                raise ProtocolError(
                    ErrorCode.WRONG_SHARD,
                    f"row {list(row)!r} of {predicate!r} hashes to shard "
                    f"{owner}, not this shard ({shard})",
                    {"shard": shard, "owner": owner},
                )

    # -- introspection -----------------------------------------------------

    def stats(self, session: Optional[ReaderSession] = None) -> dict[str, Any]:
        """The ``stats`` op payload: pool, cache, admission, and metrics.

        ``session`` is the requesting connection's; see
        :meth:`SessionPool.snapshot`.
        """
        payload = {
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.time() - self.started_at,
            "pool": self.pool.snapshot(session),
            "metrics": self.metrics.snapshot(),
            **self._identity(),
        }
        if self.exporter is not None:
            payload["metrics_address"] = list(self.exporter.address)
        return payload
