"""The session pool: one writer, many snapshot readers, one versioned D/KB.

Concurrency discipline (single-writer / multi-reader):

* All sessions share one SQLite file opened in WAL journal mode.
* **Updates serialize.**  Every mutating operation (fact loads/deletes,
  rule definition, materialization) runs under the pool's writer lock, on
  the dedicated writer session, inside one explicit transaction that also
  bumps the **D/KB version** — a monotonic EDB+IDB generation counter
  persisted in the catalog (the ``dkbversion`` relation, beside the
  paper's ``epredicates`` dictionary).  A failed write rolls back both the
  change and the bump.
* **Reads run concurrently.**  Each read query checks out a reader session
  (admission-controlled), wraps itself in a deferred transaction — a WAL
  snapshot — and reads the version *inside* that snapshot, so the rows it
  computes are exactly the closure at that version: no torn reads, by
  construction.  Reader connections confine all derived/scratch relations
  to their private ``temp`` namespace (``ConnectionOptions.reader``), so a
  read physically cannot write the shared file.
* **Answers are shared.**  The (query, version)-keyed result cache sits in
  front of evaluation; compiled rules are shared between sessions through
  the stored D/KB itself (``compiled_rule_storage`` keeps the compiled
  form in the database, where every session's extract step reads it).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from ..analysis import DiagnosticReport
from ..dbms.engine import ConnectionOptions, Database
from ..errors import EvaluationError, TestbedError
from ..km.config import TestbedConfig
from ..km.partition import PartitionSpec
from ..km.policy import DEFAULT_OPTIMIZE
from ..km.session import Testbed
from ..obs.metrics import MetricsRegistry
from ..runtime.context import FastPathConfig
from ..runtime.program import DEFAULT_STRATEGY, LfpStrategy
from .admission import AdmissionController, AdmissionError
from .cache import CachedResult, VersionedResultCache, canonical_query
from .protocol import ErrorCode

#: The catalog relation persisting the D/KB generation counter.
DKB_VERSION_TABLE = "dkbversion"


class RequestTimeout(AdmissionError):
    """A read query exceeded its time budget and was interrupted."""

    code = ErrorCode.TIMEOUT


class StaleSnapshot(Exception):
    """A read's snapshot version is below the request's version floor.

    Raised by :meth:`ReaderSession.query` when the caller demanded
    ``min_version`` (a read-your-writes token or a bounded-staleness floor)
    and this database — typically a replica fed by snapshot copy — has not
    replicated that far yet.  The service layer maps it to a retryable
    ``STALE_REPLICA`` reply carrying the leader hint.
    """

    def __init__(self, version: int, min_version: int) -> None:
        super().__init__(
            f"snapshot at version {version} is below the requested "
            f"floor {min_version}"
        )
        self.version = version
        self.min_version = min_version


@dataclass(frozen=True)
class ReadResult:
    """One served read query: rows plus snapshot and cache provenance."""

    rows: tuple[tuple, ...]
    version: int
    cached: bool
    seconds: float
    answered_from_view: bool = False


def ensure_version_table(database: Database) -> None:
    """Create the ``dkbversion`` catalog relation if missing (version 0)."""
    database.execute(
        f"CREATE TABLE IF NOT EXISTS {DKB_VERSION_TABLE} "
        "(id INTEGER PRIMARY KEY CHECK (id = 1), version INTEGER NOT NULL)"
    )
    database.execute(
        f"INSERT OR IGNORE INTO {DKB_VERSION_TABLE} VALUES (1, 0)"
    )
    database.commit()


def read_version(database: Database) -> int:
    """The D/KB version visible to ``database``'s current snapshot."""
    rows = database.execute(
        f"SELECT version FROM {DKB_VERSION_TABLE} WHERE id = 1"
    )
    if not rows:
        raise EvaluationError(
            f"{DKB_VERSION_TABLE} catalog relation is missing; "
            "was this D/KB initialised by a SessionPool?"
        )
    return int(rows[0][0])


class ReaderSession:
    """One pooled read-only session: a Testbed handle plus the read path."""

    def __init__(self, pool: "SessionPool", testbed: Testbed, index: int) -> None:
        self.pool = pool
        self.testbed = testbed
        self.index = index

    def query(
        self,
        query: str,
        bindings: Optional[dict[str, Any]] = None,
        strategy: LfpStrategy = DEFAULT_STRATEGY,
        optimize: "bool | str" = DEFAULT_OPTIMIZE,
        use_views: bool = True,
        use_cache: bool = True,
        timeout: Optional[float] = None,
        min_version: Optional[int] = None,
    ) -> ReadResult:
        """Serve one read query from a consistent D/KB snapshot.

        The whole read — version probe, cache lookup, and (on a miss)
        compile + evaluate — happens inside one deferred transaction, so
        the answer corresponds to exactly one D/KB version even while the
        writer commits concurrently.

        ``min_version`` is the caller's staleness floor: the read is only
        served when the snapshot's D/KB version is at least that — the
        mechanism behind the cluster's read-your-writes tokens and
        ``max_lag`` replica policy.

        Raises:
            RequestTimeout: the evaluation ran past ``timeout`` seconds and
                was interrupted.
            StaleSnapshot: the snapshot is below ``min_version``.
            TestbedError: compilation or evaluation failed.
        """
        key = canonical_query(query, bindings)
        cache = self.pool.cache if use_cache else None
        database = self.testbed.database
        self._sync_tracing()
        started = time.perf_counter()
        interrupted = threading.Event()
        finished = threading.Event()
        enforcer: Optional[threading.Thread] = None
        if timeout is not None:
            def _enforce() -> None:
                if finished.wait(timeout):
                    return
                interrupted.set()
                # Keep interrupting until the request ends: a single
                # interrupt is a no-op when it lands between statements
                # (e.g. during a pure-Python compile phase), which would
                # let the evaluation run past its budget.
                while not finished.is_set():
                    database.interrupt()
                    finished.wait(0.005)

            enforcer = threading.Thread(
                target=_enforce, name="query-timeout", daemon=True
            )
            enforcer.start()
        try:
            with database.transaction():
                version = read_version(database)
                if min_version is not None and version < min_version:
                    raise StaleSnapshot(version, min_version)
                if cache is not None:
                    hit = cache.get(key, version)
                    if hit is not None:
                        return ReadResult(
                            hit.rows,
                            version,
                            True,
                            time.perf_counter() - started,
                            hit.answered_from_view,
                        )
                result = self.testbed.query(
                    key,
                    optimize=optimize,
                    strategy=strategy,
                    use_views=use_views,
                )
                rows = tuple(tuple(row) for row in result.rows)
                elapsed = time.perf_counter() - started
                if cache is not None:
                    cache.put(
                        key,
                        CachedResult(
                            rows, version, result.answered_from_view, elapsed
                        ),
                    )
                return ReadResult(
                    rows, version, False, elapsed, result.answered_from_view
                )
        except EvaluationError as error:
            if interrupted.is_set():
                raise RequestTimeout(
                    f"query exceeded its {timeout:.3f}s budget"
                ) from error
            raise
        finally:
            finished.set()
            if enforcer is not None:
                enforcer.join(timeout=1.0)

    def _sync_tracing(self) -> None:
        """Match this session's tracer to the pool's escalation state.

        Runs at the top of each query, when the session is owned by one
        connection and no statement is in flight on it — the only safe
        moment to swap the tracer of a live session.
        """
        wanted = self.pool.tracing_wanted()
        if wanted and self.testbed.tracer is None:
            self.testbed.enable_tracing()
        elif not wanted and self.testbed.tracer is not None:
            self.testbed.disable_tracing()

    def lint(self, query: Optional[str] = None) -> DiagnosticReport:
        """Static-analysis report over the stored rule base (collect-all)."""
        return self.testbed.lint(query)


class SessionPool:
    """A writer session plus ``readers`` pooled reader sessions on one file.

    Args:
        path: the shared SQLite file (WAL mode requires a real file, so
            ``:memory:`` is rejected).
        readers: number of concurrently usable reader sessions.
        max_waiters: how many reader checkouts may queue before load
            shedding kicks in.
        session_timeout: default seconds a checkout waits for a free
            reader session.
        cache: result-cache to consult on reads (``None`` disables
            caching).
        reader_fastpath: fast-path configuration for reader query
            execution (default: everything on — this is the serving path,
            not the paper-faithful measurement path).
        metrics: registry receiving the ``server.*`` metric families.
        trace: open every pooled session with structured tracing enabled.
        partition: cluster partition metadata recorded on every session's
            :class:`~repro.km.config.TestbedConfig` (with ``shard_index``),
            so a shard's writer rejects rows its hash partition does not
            own.  ``None`` outside a cluster.
        shard_index: which partition this pool's database holds.
    """

    def __init__(
        self,
        path: str,
        readers: int = 4,
        max_waiters: int = 16,
        session_timeout: float | None = 30.0,
        cache: Optional[VersionedResultCache] = None,
        reader_fastpath: Optional[FastPathConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace: bool = False,
        partition: "PartitionSpec | None" = None,
        shard_index: Optional[int] = None,
    ) -> None:
        if path == ":memory:":
            raise ValueError(
                "SessionPool needs an on-disk database: WAL-mode snapshots "
                "do not exist for :memory: databases"
            )
        if readers <= 0:
            raise ValueError(f"readers must be positive, got {readers}")
        self.path = path
        self.cache = cache
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.admission = AdmissionController(
            readers,
            max_waiters=max_waiters,
            default_timeout=session_timeout,
            metrics=self.metrics,
        )
        # Tracing escalation (the SLO watchdog's diagnostic mode): a count
        # of outstanding escalations rather than a flag, so overlapping
        # escalate/restore pairs from independent watchdog rules compose.
        # Sessions apply the desired state lazily at query time — a session
        # is owned by exactly one connection while checked out, so the
        # enable/disable happens with no query in flight on it.
        self._trace_baseline = trace  # not-shared: fixed at construction
        self._trace_escalations = 0  # guarded-by: _trace_lock
        self._trace_lock = threading.Lock()
        self._writer_lock = threading.Lock()  # serializes: one writer transaction at a time is the point
        self._closed = False  # not-shared: close() runs after request traffic stops
        # The writer session initialises every catalog relation (extensional
        # dictionary, stored D/KB, view registry, version counter) before
        # any reader opens, so readers never attempt catalog DDL.
        self.writer = Testbed(
            TestbedConfig(
                path=path,
                connection=ConnectionOptions.writer(),
                trace=trace,
                partition=partition,
                shard_index=shard_index,
            )
        )
        ensure_version_table(self.writer.database)
        if reader_fastpath is None:
            reader_fastpath = FastPathConfig.enabled()
        reader_config = TestbedConfig(
            path=path,
            connection=ConnectionOptions.reader(),
            fastpath=reader_fastpath,
            trace=trace,
            partition=partition,
            shard_index=shard_index,
        )
        self._sessions = [
            ReaderSession(self, Testbed(reader_config), index)
            for index in range(readers)
        ]
        self._idle: list[ReaderSession] = list(self._sessions)  # guarded-by: _idle_lock
        self._idle_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close every pooled session."""
        if self._closed:
            return
        self._closed = True
        for session in self._sessions:
            session.testbed.close()
        self.writer.close()

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- tracing escalation ------------------------------------------------

    def escalate_tracing(self) -> int:
        """One more caller wants diagnostic tracing; returns the count."""
        with self._trace_lock:
            self._trace_escalations += 1
            return self._trace_escalations

    def restore_tracing(self) -> int:
        """One escalation released; tracing stays on while any remain."""
        with self._trace_lock:
            self._trace_escalations = max(0, self._trace_escalations - 1)
            return self._trace_escalations

    def tracing_wanted(self) -> bool:
        """Should sessions trace right now (baseline or escalated)?"""
        if self._trace_baseline:
            return True
        with self._trace_lock:
            return self._trace_escalations > 0

    # -- versioning --------------------------------------------------------

    def version(self) -> int:
        """The currently committed D/KB version."""
        with self._writer_lock:
            return read_version(self.writer.database)

    # -- reading -----------------------------------------------------------

    @contextmanager
    def reader(self, timeout: float | None = None) -> Iterator[ReaderSession]:
        """Check out a reader session (admission-controlled).

        Raises:
            ServerBusy: all sessions busy and the wait queue is full.
            AdmissionTimeout: no session freed up in time.
        """
        self.admission.acquire(timeout)
        try:
            with self._idle_lock:
                session = self._idle.pop()
            try:
                yield session
            finally:
                with self._idle_lock:
                    self._idle.append(session)
        finally:
            self.admission.release()

    def query(self, query: str, **kwargs: Any) -> ReadResult:
        """Convenience: check out a session for one read query."""
        timeout = kwargs.pop("session_timeout", None)
        with self.reader(timeout) as session:
            return session.query(query, **kwargs)

    # -- writing -----------------------------------------------------------

    @contextmanager
    def write(self, timeout: float | None = None) -> Iterator[Testbed]:
        """Run a mutating block on the writer session, atomically versioned.

        The block runs under the writer lock inside one explicit
        transaction; on success the D/KB version is bumped *in the same
        transaction*, so readers either see the whole change with the new
        version or none of it.  On failure everything — including the
        bump — rolls back.

        Raises:
            AdmissionTimeout: the writer lock could not be taken in time.
        """
        acquired = self._writer_lock.acquire(
            timeout=-1 if timeout is None else timeout
        )
        if not acquired:
            self.admission.record_rejected_timeout()
            raise RequestTimeout(
                f"writer lock not acquired within {timeout:.3f}s"
            )
        try:
            database = self.writer.database
            with database.transaction():
                yield self.writer
                database.execute(
                    f"UPDATE {DKB_VERSION_TABLE} SET version = version + 1 "
                    "WHERE id = 1"
                )
            self.metrics.counter("server.writes").inc()
            self.metrics.gauge("server.dkb_version").set(
                read_version(database)
            )
        finally:
            self._writer_lock.release()

    def load_facts(
        self,
        predicate: str,
        rows: Iterable[Sequence],
        timeout: float | None = None,
        types: "Sequence[str] | None" = None,
    ) -> int:
        """Versioned bulk fact load (creates the relation on first use).

        ``types`` lets an *empty* load still create the relation — the
        cluster router uses this to materialize a partitioned relation's
        schema on shards that own none of its rows (so shard-local
        evaluation of rules reading it sees an empty relation, not a
        missing one).
        """
        rows = [tuple(row) for row in rows]
        with self.write(timeout) as testbed:
            if not testbed.catalog.has_relation(predicate) and (rows or types):
                schema = tuple(types) if types else tuple(
                    "INTEGER" if isinstance(value, int) else "TEXT"
                    for value in rows[0]
                )
                testbed.define_base_relation(predicate, schema)
            return testbed.load_facts(predicate, rows)

    def delete_facts(
        self,
        predicate: str,
        rows: Iterable[Sequence],
        timeout: float | None = None,
    ) -> int:
        """Versioned bulk fact delete."""
        with self.write(timeout) as testbed:
            return testbed.delete_facts(predicate, rows)

    def define(self, program: str, timeout: float | None = None) -> int:
        """Add rules/facts and persist the rules into the stored D/KB.

        Returns the number of clauses added.  Rules are folded into the
        stored D/KB immediately (``update_stored_dkb``), so every session
        compiles against them — the server has no per-connection workspace.
        """
        with self.write(timeout) as testbed:
            added = testbed.define(program)
            if any(clause.is_rule for clause in added):
                testbed.update_stored_dkb(clear_workspace=True)
            return len(added)

    def materialize(self, predicate: str, timeout: float | None = None) -> int:
        """Versioned view materialization; returns the view's tuple count."""
        with self.write(timeout) as testbed:
            return testbed.materialize(predicate)

    def apply(
        self, operation: Callable[[Testbed], Any], timeout: float | None = None
    ) -> Any:
        """Run an arbitrary mutating operation under the write discipline."""
        with self.write(timeout) as testbed:
            return operation(testbed)

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-friendly pool state for the ``stats`` op."""
        state: dict[str, Any] = {
            "path": self.path,
            "readers": len(self._sessions),
            "version": self.version(),
            "admission": self.admission.snapshot(),
        }
        if self.cache is not None:
            state["cache"] = self.cache.snapshot()
        return state


# Re-exported for tests that build pools from an existing TestbedConfig.
def reader_config_of(pool: SessionPool) -> TestbedConfig:
    """The TestbedConfig the pool's reader sessions were built with."""
    return dataclasses.replace(
        pool._sessions[0].testbed.config
    )


__all__ = [
    "DKB_VERSION_TABLE",
    "ReadResult",
    "ReaderSession",
    "RequestTimeout",
    "SessionPool",
    "StaleSnapshot",
    "canonical_query",
    "ensure_version_table",
    "read_version",
    "TestbedError",
]
