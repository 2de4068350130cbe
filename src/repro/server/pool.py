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
  (admission-controlled).  With the result cache on, it first reads the
  version with one autocommit ``SELECT`` — in WAL mode a statement is its
  own consistent snapshot — and a cached answer at that version is
  returned at once: no transaction, no budget.  Only a miss opens a
  deferred transaction (a WAL snapshot), reads the version again *inside*
  it and evaluates there under the request's :meth:`Database.deadline`, so
  the rows it computes are exactly the closure at that version: no torn
  reads, by construction.  Reader connections confine all derived/scratch
  relations to their private ``temp`` namespace
  (``ConnectionOptions.reader``), so a read physically cannot write the
  shared file.
* **Answers are shared.**  The (query, version)-keyed result cache sits in
  front of evaluation, and a cached answer is the closure at exactly the
  version it is returned with; compiled rules are shared between sessions
  through the stored D/KB itself (``compiled_rule_storage`` keeps the
  compiled form in the database, where every session's extract step reads
  it).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from ..analysis import DiagnosticReport
from ..dbms.engine import ConnectionOptions, Database
from ..dbms.schema import DKB_VERSION_TABLE
from ..errors import EvaluationError, TestbedError
from ..km.config import TestbedConfig
from ..km.partition import PartitionSpec
from ..km.policy import DEFAULT_OPTIMIZE
from ..km.session import Testbed
from ..obs.metrics import MetricsRegistry
from ..runtime.program import DEFAULT_STRATEGY, LfpStrategy
from .admission import AdmissionController, AdmissionError
from .cache import (
    CachedResult,
    VersionedResultCache,
    bind_query,
    canonical_query,
)
from .protocol import ErrorCode


class RequestTimeout(AdmissionError):
    """A read query exceeded its time budget and was aborted."""

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


def read_version(database: Database) -> int:
    """The D/KB version visible to ``database``'s current snapshot."""
    rows = database.execute(
        f"SELECT version FROM {DKB_VERSION_TABLE} WHERE id = 1"
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

        With the cache on, the version is read first by one autocommit
        ``SELECT`` — in WAL mode its own consistent snapshot — and a cached
        answer at that version is returned at once, with no transaction and
        no budget: it is the closure at exactly that version.  A miss opens
        one deferred transaction, reads the version again inside it and
        compiles + evaluates there under a :meth:`Database.deadline` of
        ``timeout`` seconds, so the answer corresponds to exactly one D/KB
        version even while the writer commits concurrently.

        ``min_version`` is the caller's staleness floor: the read is only
        served when the snapshot's D/KB version is at least that — the
        mechanism behind the cluster's read-your-writes tokens and
        ``max_lag`` replica policy.

        Raises:
            RequestTimeout: the evaluation ran past ``timeout`` seconds and
                was aborted.
            StaleSnapshot: the snapshot is below ``min_version``.
            TestbedError: compilation or evaluation failed.
        """
        parsed = bind_query(query, bindings)
        key = str(parsed)
        cache = self.pool.cache if use_cache else None
        database = self.testbed.database
        started = time.perf_counter()
        if cache is not None:
            version = self.committed_version()
            if min_version is None or version >= min_version:
                hit = cache.get(key, version)
                if hit is not None:
                    return ReadResult(
                        hit.rows,
                        version,
                        True,
                        time.perf_counter() - started,
                        hit.answered_from_view,
                    )
        if database.tracer is not None:
            # A traced session keeps the current request's spans only.
            database.tracer.clear()
        try:
            with database.transaction():
                version = read_version(database)
                if min_version is not None and version < min_version:
                    raise StaleSnapshot(version, min_version)
                with database.deadline(timeout):
                    result = self.testbed.query(
                        parsed,
                        optimize=optimize,
                        strategy=strategy,
                        use_views=use_views,
                    )
        except EvaluationError as error:
            if timeout is not None and time.perf_counter() - started >= timeout:
                raise RequestTimeout(
                    f"query exceeded its {timeout:.3f}s budget"
                ) from error
            raise
        rows = tuple(tuple(row) for row in result.rows)
        elapsed = time.perf_counter() - started
        if cache is not None:
            cache.put(
                key, CachedResult(rows, version, result.answered_from_view, elapsed)
            )
        return ReadResult(rows, version, False, elapsed, result.answered_from_view)

    def committed_version(self) -> int:
        """The latest committed D/KB version, by one autocommit ``SELECT``.

        Reads the shared file through this session's own connection and
        takes no lock, so a ``ping`` or ``stats`` never queues behind an
        in-flight write.  On a replica it is the replicated version.
        """
        return read_version(self.testbed.database)

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
        self._writer_lock = threading.Lock()  # serializes: one writer transaction at a time is the point
        self._closed = False  # not-shared: close() runs after request traffic stops
        self._written = threading.local()  # not-shared: per-thread by construction
        # The writer session opens the D/KB first, completing its catalog
        # if the file lacks any of it, so every reader finds a complete
        # catalog and opens it without DDL or a write transaction.
        self.writer = Testbed(
            TestbedConfig(
                path=path,
                connection=ConnectionOptions.writer(),
                trace=trace,
                partition=partition,
                shard_index=shard_index,
            )
        )
        reader_config = TestbedConfig(
            path=path,
            connection=ConnectionOptions.reader(),
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

    # -- versioning --------------------------------------------------------

    def version(self) -> int:
        """The currently committed D/KB version.

        Read on the writer session, so it waits for an in-flight write; the
        served ``ping``/``stats`` ops use the connection's own reader
        session instead (:meth:`ReaderSession.committed_version`).
        """
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
        bump — rolls back.  The bumped version is read inside the
        transaction too; :meth:`written_version` hands it to the caller.

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
            if database.tracer is not None:
                database.tracer.clear()
            with database.transaction():
                yield self.writer
                database.execute(
                    f"UPDATE {DKB_VERSION_TABLE} SET version = version + 1 "
                    "WHERE id = 1"
                )
                version = read_version(database)
            self._written.version = version
            self.metrics.counter("server.writes").inc()
            self.metrics.gauge("server.dkb_version").set(version)
        finally:
            self._writer_lock.release()

    def written_version(self) -> int:
        """The D/KB version the calling thread's latest write committed.

        The write's own version even when another writer has committed
        since — what an update reply must carry: a later version would
        raise the caller's read-my-writes floor past its own write.
        """
        return self._written.version

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

    def snapshot(self, session: Optional[ReaderSession] = None) -> dict[str, Any]:
        """JSON-friendly pool state for the ``stats`` op.

        Given the requesting connection's ``session``, the version is read
        through it (:meth:`ReaderSession.committed_version`) instead of
        under the writer lock.
        """
        state: dict[str, Any] = {
            "path": self.path,
            "readers": len(self._sessions),
            "version": (
                self.version() if session is None else session.committed_version()
            ),
            "admission": self.admission.snapshot(),
        }
        if self.cache is not None:
            state["cache"] = self.cache.snapshot()
        return state


__all__ = [
    "DKB_VERSION_TABLE",
    "ReadResult",
    "ReaderSession",
    "RequestTimeout",
    "SessionPool",
    "StaleSnapshot",
    "canonical_query",
    "read_version",
    "TestbedError",
]
