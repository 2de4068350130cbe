"""The line-protocol core and the concurrent query server built on it.

:class:`LineServer` is the one protocol core: a threaded TCP listener that
reads request lines, decodes, validates and dispatches them to a *role*,
maps what the role raises to a structured error code, and records every
request.  Two roles run on it: :class:`DkbServer` here (a single server, or
one shard of a cluster) and :class:`~repro.cluster.router.ClusterRouter`.

Connection model of the server role (the classic RDBMS connection-slot
discipline): a client connection checks one reader session out of the
pool for its whole lifetime, so ``readers`` bounds the number of
simultaneously *connected* clients, and admission control (bounded wait
queue + ``SERVER_BUSY`` shedding) governs the connect path.  Requests on
an admitted connection then run one at a time in that connection's
handler thread.

Updates do not consume the connection's reader session — they funnel
through the pool's single writer under the writer lock, each bumping the
persistent D/KB version (see :mod:`repro.server.pool`).
"""

from __future__ import annotations

import socketserver
import threading
import time
from abc import ABC, abstractmethod
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, BinaryIO, ContextManager, Iterator, Optional, TypeVar

from ..errors import ParseError, TestbedError
from ..km.partition import PartitionSpec
from ..km.policy import DEFAULT_OPTIMIZE
from ..obs.live.exporter import MetricsExporter
from ..obs.metrics import REQUEST_SECONDS_BUCKETS, MetricsRegistry
from ..runtime.program import DEFAULT_STRATEGY, LfpStrategy
from .admission import AdmissionError
from .cache import VersionedResultCache
from .client import ServerError
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

    def __post_init__(self) -> None:
        if self.role not in ("primary", "replica"):
            raise ValueError(f"role must be primary or replica: {self.role!r}")


#: Exception class -> reply code and message prefix, first match wins; a
#: ``None`` code keeps the one the error carries.  One table for both roles:
#: a shard raises the first five, the router also forwards a backend's
#: structured ``ServerError`` and maps the transport failures after it.
_ERROR_CODES: tuple[tuple[type[Exception], Optional[str], str], ...] = (
    (ProtocolError, None, ""),
    (ServerError, None, ""),
    (AdmissionError, None, ""),
    (ParseError, ErrorCode.BAD_REQUEST, ""),
    (TestbedError, ErrorCode.EVALUATION_ERROR, ""),
    (TimeoutError, ErrorCode.TIMEOUT, "backend did not reply in time: "),
    (ConnectionError, ErrorCode.INTERNAL, "backend unreachable: "),
)


def _error_reply(request_id: Any, error: Exception) -> dict[str, Any]:
    """The structured reply for an exception raised while serving."""
    for kind, code, prefix in _ERROR_CODES:
        if isinstance(error, kind):
            return error_reply(
                request_id,
                code or getattr(error, "code"),
                prefix + getattr(error, "message", str(error)),
                getattr(error, "details", None),
            )
    return error_reply(
        request_id, ErrorCode.INTERNAL, f"{type(error).__name__}: {error}"
    )


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: the role's connection context, then line
    requests until EOF."""

    server: "_TcpServer"

    def handle(self) -> None:
        role = self.server.role
        try:
            with role.connection() as connection:
                self._serve(role, connection)
        except AdmissionError as error:
            role.metrics.counter(f"{role.kind}.busy").inc()
            self._send(error_reply(None, error.code, str(error)))

    def _serve(self, role: "LineServer", connection: Any) -> None:
        metrics = role.metrics
        requests = f"{role.kind}.requests"
        errors = f"{role.kind}.errors"
        seconds = f"{role.kind}.request_seconds"
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
                reply = role.dispatch(message, connection)
                reply["id"] = request_id
            except Exception as error:
                reply = _error_reply(request_id, error)
            elapsed = time.perf_counter() - started
            metrics.counter(requests).inc()
            if not reply.get("ok"):
                metrics.counter(errors).inc()
            metrics.histogram(seconds, REQUEST_SECONDS_BUCKETS).observe(elapsed)
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
    role: "LineServer"


class LineServer(ABC):
    """The protocol core: a threaded TCP listener serving line requests.

    Each client connection is served under the context the role's
    :meth:`connection` returns; each request line is decoded, validated,
    handed to :meth:`dispatch`, and an exception it raises is answered
    through one error table.  A role (:class:`DkbServer`, the cluster
    router) supplies those two methods plus the resources it serves from;
    this class owns the socket, the serve thread, the ``/metrics``
    exporter and the ``<kind>.requests`` / ``.errors`` / ``.busy`` /
    ``.request_seconds`` series.  Use as a context manager, or call
    :meth:`start` / :meth:`close`.
    """

    #: Metric-name prefix of the role's request series.
    kind: str
    #: Counters touched at exporter boot besides the request series.
    series: tuple[str, ...] = ()

    def __init__(
        self, host: str, port: int, metrics_port: Optional[int]
    ) -> None:
        self.metrics = MetricsRegistry()
        self.exporter: Optional[MetricsExporter] = None
        self._thread: Optional[threading.Thread] = None
        self._serving = False  # not-shared: set before any serve loop runs
        # Bind first; if anything after the bind fails, close what was
        # opened (socket, the role's resources, exporter thread) before
        # re-raising.  What was opened is closed again, last first, by
        # close().
        with ExitStack() as opened:
            self._tcp = _TcpServer((host, port), _Handler)
            opened.callback(self._tcp.server_close)
            self._tcp.role = self
            self._open(opened)
            if metrics_port is not None:
                # Touch the lazily-created series so the first scrape shows
                # each one at zero: a scraper's rate() over a series that
                # first appears at 1 never counts that first increment.
                for name in (f"{self.kind}.requests", f"{self.kind}.errors", *self.series):
                    self.metrics.counter(name)
                self.metrics.histogram(
                    f"{self.kind}.request_seconds", REQUEST_SECONDS_BUCKETS
                )
                self.exporter = self._export(
                    MetricsExporter(host, metrics_port)
                ).start()
                opened.callback(self.exporter.close)
            self._opened = opened.pop_all()
        self.started_at = time.time()

    # -- the role ----------------------------------------------------------

    @abstractmethod
    def _open(self, opened: ExitStack) -> None:
        """Open what the role serves from, registering each closer."""

    @abstractmethod
    def _export(self, exporter: MetricsExporter) -> MetricsExporter:
        """Add the role's sources to its (not yet started) exporter."""

    @abstractmethod
    def connection(self) -> ContextManager[Any]:
        """The context one client connection is served under.

        An :class:`~repro.server.admission.AdmissionError` on entry refuses
        the connection: it is answered with the error's code and counted as
        ``<kind>.busy``, not as a request.
        """

    @abstractmethod
    def dispatch(self, message: dict[str, Any], connection: Any) -> dict[str, Any]:
        """Serve one validated request; returns the success reply."""

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` to the real port."""
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    def start(self: _Role) -> _Role:
        """Serve in a background thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError(f"{self.kind} already started")
        self._serving = True
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=f"dkb-{self.kind}",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (for ``python -m repro serve``)."""
        self._serving = True
        self._tcp.serve_forever(poll_interval=0.05)

    def close(self) -> None:
        """Stop accepting, join the serve thread, close what was opened.

        ``shutdown()`` waits for a running serve loop, so it is only asked
        of a server that was started: closing one that never served
        returns at once.
        """
        if self._serving:
            self._tcp.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._opened.close()

    def stats(self) -> dict[str, Any]:
        """What every role's ``stats`` payload carries."""
        payload = {
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.time() - self.started_at,
            "metrics": self.metrics.snapshot(),
        }
        if self.exporter is not None:
            payload["metrics_address"] = list(self.exporter.address)
        return payload

    def __enter__(self: _Role) -> _Role:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


_Role = TypeVar("_Role", bound=LineServer)


class DkbServer(LineServer):
    """The multi-session D/KBMS service: the shard role of the core.

    Owns the versioned result cache and the session pool; a client
    connection holds one reader session for its lifetime.
    """

    kind = "server"
    series = ("server.busy", "server.cache.hits", "server.cache.misses")

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        super().__init__(config.host, config.port, config.metrics_port)

    def _open(self, opened: ExitStack) -> None:
        config = self.config
        self.cache: Optional[VersionedResultCache] = (
            VersionedResultCache(config.cache_size, metrics=self.metrics)
            if config.cache_size > 0
            else None
        )
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
        )
        opened.callback(self.pool.close)

    def _export(self, exporter: MetricsExporter) -> MetricsExporter:
        return exporter.add_source(self.metrics, self._identity()).add_refresher(
            self._refresh_gauges
        )

    @contextmanager
    def connection(self) -> Iterator[ReaderSession]:
        """Check a reader session out under admission control."""
        with self.pool.reader(self.config.session_timeout) as session:
            self.metrics.counter("server.connections").inc()
            yield session

    def _refresh_gauges(self) -> None:
        """Pre-scrape hook: mirror point-in-time state into gauges."""
        admission = self.pool.admission.snapshot()
        for name in ("in_use", "waiting", "slots", "max_waiters"):
            self.metrics.gauge(f"server.admission.{name}").set(
                float(admission[name] or 0)
            )
        self.metrics.gauge("server.dkb_version").set(float(self.pool.version()))

    # -- cluster helpers ---------------------------------------------------

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
        try:
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
        except StaleSnapshot as error:
            details: dict[str, Any] = {
                "version": error.version,
                "min_version": error.min_version,
                "retry_after": self.config.replication_poll,
            }
            if self.config.leader is not None:
                details["leader"] = list(self.config.leader)
            raise ProtocolError(
                ErrorCode.STALE_REPLICA, str(error), details
            ) from None
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
        return {
            **super().stats(),
            "pool": self.pool.snapshot(session),
            **self._identity(),
        }
