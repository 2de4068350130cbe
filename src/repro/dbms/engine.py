"""The DBMS layer: an instrumented embedded-SQL interface.

The paper's testbed talks to "a commercial relational database management
system with SQL and embedded SQL (in C) interfaces"; every interaction goes
through SQL statements, and the paper's measurements attribute costs to those
statements (temporary-table create/drop, right-hand-side evaluation, full
set-difference termination checks).  :class:`Database` reproduces that
interface and instruments it: every statement is counted, timed, and
attributed to the innermost named *phase*, so the experiment harness can
produce the paper's breakdown tables.

Which engine sits underneath is a :class:`~repro.dbms.backends.SqlBackend`
(default: SQLite); everything driver-specific — connection setup, exception
types, catalog probes, dialect capabilities — lives behind that interface,
and the instrumentation here is engine-neutral.
"""

from __future__ import annotations

import contextlib
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from ..errors import EvaluationError
from ..obs.trace import DEFAULT_PHASE, Span, StatementRecord, Tracer
from .backends import BackendCapabilities, SqlBackend, get_backend
from .schema import RelationSchema, quote_identifier

_STATEMENT_KIND_RE = re.compile(r"\s*([A-Za-z]+)")

DEFAULT_STATEMENT_CACHE_SIZE = 128


@dataclass(frozen=True)
class ConnectionOptions:
    """How the underlying SQLite connection is opened and journalled.

    The defaults reproduce the seed single-session behaviour exactly
    (``journal_mode = MEMORY``, same-thread enforcement, permanent derived
    relations).  The concurrent query server opens its pooled handles with
    :meth:`writer` / :meth:`reader` instead.

    Attributes:
        wal: open the database in write-ahead-log journal mode, the mode
            that lets one writer commit while readers hold consistent
            snapshots.  Requires an on-disk path (``:memory:`` databases
            have no WAL).
        busy_timeout_ms: how long SQLite retries a locked database before
            giving up (``PRAGMA busy_timeout``); ``0`` keeps SQLite's
            fail-fast default.
        check_same_thread: forwarded to :func:`sqlite3.connect`.  ``False``
            lets a pooled handle be checked out by different threads over
            its lifetime (each checkout still uses it from one thread at a
            time).
        temp_derived: create every derived/scratch relation in the
            per-connection ``temp`` namespace instead of the shared main
            database.  Reader sessions of the query server set this so a
            read query physically cannot write the shared file — its
            ``d_*`` result relations and LFP scratch tables live (and
            shadow any same-named main-database leftovers) in connection-
            private storage.
    """

    wal: bool = False
    busy_timeout_ms: int = 0
    check_same_thread: bool = True
    temp_derived: bool = False

    @classmethod
    def writer(cls, busy_timeout_ms: int = 10_000) -> "ConnectionOptions":
        """Options for the query server's single writer session."""
        return cls(wal=True, busy_timeout_ms=busy_timeout_ms, check_same_thread=False)

    @classmethod
    def reader(cls, busy_timeout_ms: int = 10_000) -> "ConnectionOptions":
        """Options for a pooled reader session (snapshot reads only)."""
        return cls(
            wal=True,
            busy_timeout_ms=busy_timeout_ms,
            check_same_thread=False,
            temp_derived=True,
        )


class StatementCache:
    """An LRU cache of prepared statements (cursors), keyed on SQL text.

    The paper's embedded-SQL programs re-prepare the same statements every
    LFP iteration; the cache keeps the prepared form (a dedicated
    :class:`sqlite3.Cursor`, which pins the compiled statement in the
    connection's statement cache) alive across executions.  Hits and misses
    are counted so the benchmarks can report cache effectiveness.
    """

    def __init__(self, capacity: int = DEFAULT_STATEMENT_CACHE_SIZE):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._cursors: OrderedDict[str, Any] = OrderedDict()  # guarded-by: _lock
        # Lookup, counter update, and eviction must be one atomic step when
        # several threads share the owning Database handle.
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._cursors)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def cursor_for(self, connection: Any, sql: str) -> tuple[Any, bool]:
        """The cached cursor for ``sql`` (creating one), plus hit/miss."""
        with self._lock:
            cursor = self._cursors.get(sql)
            if cursor is not None:
                self._cursors.move_to_end(sql)
                self.hits += 1
                return cursor, True
            self.misses += 1
            cursor = connection.cursor()
            self._cursors[sql] = cursor
            evicted: list[Any] = []
            while len(self._cursors) > self.capacity:
                __, victim = self._cursors.popitem(last=False)
                evicted.append(victim)
        for victim in evicted:
            victim.close()
        return cursor, False

    def clear(self) -> None:
        """Drop every cached cursor (counters survive)."""
        with self._lock:
            cursors = list(self._cursors.values())
            self._cursors.clear()
        for cursor in cursors:
            with contextlib.suppress(Exception):
                cursor.close()


@dataclass
class PhaseStats:
    """Accumulated statement counts, rows, and wall time for one phase."""

    statements: int = 0
    rows_fetched: int = 0
    rows_changed: int = 0
    seconds: float = 0.0
    by_kind: dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0

    def record(
        self,
        kind: str,
        seconds: float,
        fetched: int,
        changed: int,
        cache_hit: bool | None = None,
    ) -> None:
        """Fold one statement execution into the totals.

        ``cache_hit`` reports the statement-cache outcome (``None`` when the
        statement bypassed the cache, e.g. the cache is disabled).
        """
        self.statements += 1
        self.seconds += seconds
        self.rows_fetched += fetched
        self.rows_changed += changed
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        if cache_hit is True:
            self.cache_hits += 1
        elif cache_hit is False:
            self.cache_misses += 1

    def merged_with(self, other: "PhaseStats") -> "PhaseStats":
        """A new PhaseStats combining both operands."""
        merged = PhaseStats(
            self.statements + other.statements,
            self.rows_fetched + other.rows_fetched,
            self.rows_changed + other.rows_changed,
            self.seconds + other.seconds,
            dict(self.by_kind),
            self.cache_hits + other.cache_hits,
            self.cache_misses + other.cache_misses,
        )
        for kind, count in other.by_kind.items():
            merged.by_kind[kind] = merged.by_kind.get(kind, 0) + count
        return merged


class Statistics:
    """Per-phase statement statistics for one :class:`Database`.

    A statement is attributed to the phase of the innermost open span on
    the database's span stack (``"(none)"`` outside any span).  The
    experiment harness resets the statistics before a measured operation
    and reads them afterwards.
    """

    DEFAULT_PHASE = DEFAULT_PHASE

    def __init__(self, spans: list[Span]) -> None:
        self._phases: dict[str, PhaseStats] = {}
        # The owning database's open-span stack (innermost last).
        self._spans = spans

    def reset(self) -> None:
        """Drop all accumulated numbers (open spans are untouched)."""
        self._phases.clear()

    @property
    def current_phase(self) -> str:
        """Phase of the innermost open span."""
        return self._spans[-1].phase if self._spans else DEFAULT_PHASE

    def record(
        self,
        kind: str,
        seconds: float,
        fetched: int,
        changed: int,
        cache_hit: bool | None = None,
    ) -> None:
        """Attribute one statement to the current phase."""
        phase = self._phases.setdefault(self.current_phase, PhaseStats())
        phase.record(kind, seconds, fetched, changed, cache_hit)

    def record_span(self, phase: str, seconds: float) -> None:
        """Attribute non-statement wall time to ``phase``.

        Pure-CPU work that issues no SQL (e.g. the ``lint`` phase of query
        compilation) still shows up in the per-phase breakdown this way —
        with zero statements, only seconds.
        """
        self._phases.setdefault(phase, PhaseStats()).seconds += seconds

    def phase(self, name: str) -> PhaseStats:
        """The statistics bucket for ``name`` (empty bucket if unused)."""
        return self._phases.get(name, PhaseStats())

    def phases(self) -> dict[str, PhaseStats]:
        """All phase buckets, by name."""
        return dict(self._phases)

    @property
    def total(self) -> PhaseStats:
        """All phases folded together."""
        total = PhaseStats()
        for stats in self._phases.values():
            total = total.merged_with(stats)
        return total


class Database:
    """An instrumented SQL database posing as the testbed's DBMS.

    All access must go through :meth:`execute` / the helpers built on it, so
    the statistics see every statement — the testbed's analogue of embedded
    SQL being the only path to the commercial DBMS.
    """

    def __init__(
        self,
        path: str = ":memory:",
        statement_cache_size: int = DEFAULT_STATEMENT_CACHE_SIZE,
        options: ConnectionOptions | None = None,
        backend: "str | SqlBackend | None" = None,
    ):
        """Open the database.

        Args:
            path: database path (default: a private in-memory database).
            statement_cache_size: capacity of the prepared-statement LRU
                cache; ``0`` disables caching (every statement
                re-prepares).  Forced off on backends whose cursors do not
                share connection state (``supports_shared_cursors``).
            options: connection-level knobs (journal mode, busy timeout,
                thread affinity, private derived relations); the default
                reproduces the seed single-session behaviour.
            backend: which engine to open — a registry name
                (``"sqlite"``, ``"duckdb"``), a
                :class:`~repro.dbms.backends.SqlBackend` instance, or
                ``None`` for the default SQLite backend.
        """
        self.backend = get_backend(backend)
        self.options = options if options is not None else ConnectionOptions()
        self._connection = self.backend.connect(path, self.options)
        # One statement at a time per handle: DB-API cursors are not
        # re-entrant, so when a handle is shared across threads
        # (check_same_thread=False) the execute/record step must be atomic.
        self._execute_lock = threading.RLock()  # serializes: one statement at a time is the point
        # The open spans, innermost last (see span): one stack for the
        # clock, the Statistics phase and the tracer's tree.
        self._spans: list[Span] = []  # not-shared: spans are opened and closed by the single controlling thread
        # Statistics.record() runs under _execute_lock; the span stack is
        # driven by the single controlling thread between statements.
        self.statistics = Statistics(self._spans)  # not-shared: record() is under _execute_lock, spans are single-threaded
        self.statement_cache: StatementCache | None = (
            StatementCache(statement_cache_size)
            if statement_cache_size
            and self.backend.capabilities.supports_shared_cursors
            else None
        )
        self._in_explicit_transaction = False  # not-shared: only the single writer batches transactions
        # Scratch relations this connection has created, name -> column
        # types (see scratch_relation).  Forgotten on rollback.
        self._scratch: dict[str, tuple[str, ...]] = {}  # not-shared: a handle runs one evaluation at a time (a reader checkout, or the writer under its lock)
        # Optional observability sink (see repro.obs).  ``None`` when tracing
        # is disabled — the hot path then pays one attribute test and nothing
        # else, so paper-faithful timings are untouched.
        self._tracer: Tracer | None = None  # not-shared: installed before the handle is shared
        # The perf_counter instant after which no statement may start (see
        # deadline); ``None`` outside a budgeted block, for the same one
        # attribute test on the hot path.
        self._deadline: float | None = None  # not-shared: set and cleared by the thread running the budgeted block

    @property
    def capabilities(self) -> BackendCapabilities:
        """Feature flags of the engine underneath this handle."""
        return self.backend.capabilities

    @property
    def tracer(self) -> Tracer | None:
        """The installed observability sink, if any."""
        return self._tracer

    def set_tracer(self, tracer: Tracer | None) -> None:
        """Install (or remove, with ``None``) the observability sink."""
        self._tracer = tracer

    def close(self) -> None:
        """Close the underlying connection."""
        if self.statement_cache is not None:
            self.statement_cache.clear()
        self._connection.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def span(
        self,
        name: str,
        category: str = "",
        phase: str | None = None,
        **attributes: Any,
    ) -> Span:
        """A measured region, entered with ``with``: the one timing primitive.

        The span's ``duration`` is valid once the block exits, traced or
        not.  Statements inside it count toward ``phase`` in
        :attr:`statistics` (default: the enclosing span's phase); with a
        tracer installed the span is also a node of its tree, under the
        innermost open span.
        """
        spans = self._spans
        parent = spans[-1] if spans else None
        if phase is None:
            phase = parent.phase if parent is not None else DEFAULT_PHASE
        span = Span(name, category, phase, attributes, spans)
        if self._tracer is not None:
            self._tracer.adopt(span, parent)
        return span

    def phase(self, name: str) -> Span:
        """A span whose statements count toward phase ``name``."""
        return self.span(name, "phase", name)

    def execute(
        self, sql: str, parameters: Sequence[Any] = ()
    ) -> list[tuple]:
        """Run one statement; return fetched rows (empty for non-queries).

        Raises:
            EvaluationError: wrapping any driver-level error, or the
                :meth:`deadline` has passed.
        """
        if self._deadline is not None:
            self._check_deadline(sql)
        kind = self._statement_kind(sql)
        cache_hit: bool | None = None
        with self._execute_lock:
            started = time.perf_counter()
            try:
                if self.statement_cache is not None:
                    cursor, cache_hit = self.statement_cache.cursor_for(
                        self._connection, sql
                    )
                    cursor.execute(sql, tuple(parameters))
                else:
                    cursor = self._connection.execute(sql, tuple(parameters))
                rows = cursor.fetchall() if cursor.description is not None else []
            except self.backend.driver_errors as error:
                raise EvaluationError(f"SQL failed: {error}\n  {sql}") from error
            elapsed = time.perf_counter() - started
            # Drivers without DML row counts (DuckDB) report -1 or omit the
            # attribute entirely; record 0 rather than guessing.
            rowcount = getattr(cursor, "rowcount", -1)
            changed = rowcount if rowcount > 0 else 0
            self.statistics.record(kind, elapsed, len(rows), changed, cache_hit)
        if self._tracer is not None:
            self._tracer.on_statement(
                StatementRecord(
                    phase=self.statistics.current_phase,
                    sql=sql,
                    kind=kind,
                    seconds=elapsed,
                    rows_fetched=len(rows),
                    rows_changed=changed,
                    cache_hit=cache_hit,
                    parameters=tuple(parameters),
                ),
                self._spans,
                self,
            )
        return rows

    def executemany(self, sql: str, rows: Iterable[Sequence[Any]]) -> int:
        """Run one parameterised statement over many rows; return row count."""
        if self._deadline is not None:
            self._check_deadline(sql)
        kind = self._statement_kind(sql)
        cache_hit: bool | None = None
        rows = list(rows)
        with self._execute_lock:
            started = time.perf_counter()
            try:
                if self.statement_cache is not None:
                    cursor, cache_hit = self.statement_cache.cursor_for(
                        self._connection, sql
                    )
                    cursor.executemany(sql, rows)
                else:
                    cursor = self._connection.executemany(sql, rows)
            except self.backend.driver_errors as error:
                raise EvaluationError(f"SQL failed: {error}\n  {sql}") from error
            elapsed = time.perf_counter() - started
            # sqlite3 reports -1 ("not applicable") for some statements; only
            # then fall back to the submitted row count.  A genuine 0 — e.g.
            # an UPDATE matching nothing — must stay 0.
            rowcount = getattr(cursor, "rowcount", -1)
            changed = rowcount if rowcount >= 0 else len(rows)
            self.statistics.record(kind, elapsed, 0, changed, cache_hit)
        if self._tracer is not None:
            self._tracer.on_statement(
                StatementRecord(
                    phase=self.statistics.current_phase,
                    sql=sql,
                    kind=kind,
                    seconds=elapsed,
                    rows_fetched=0,
                    rows_changed=changed,
                    cache_hit=cache_hit,
                    parameters=tuple(rows[0]) if rows else (),
                ),
                self._spans,
                self,
            )
        return changed

    def commit(self) -> None:
        """Commit the current transaction.

        Inside an explicit :meth:`transaction` block this is a no-op: the
        inner operation joins the enclosing transaction, which commits (or
        rolls back) as one unit when the block exits.  That is what lets
        the query server apply a base-table change and its D/KB version
        bump atomically even though the individual operations commit when
        run stand-alone.
        """
        if self._in_explicit_transaction:
            return
        self.backend.commit(self._connection)

    @contextlib.contextmanager
    def deadline(self, seconds: float | None) -> Iterator[None]:
        """Give the block a budget of ``seconds`` (``None``: unbounded).

        Once the budget is spent, a statement still running is aborted (on
        backends with ``supports_deadline``) and :meth:`execute` /
        :meth:`executemany` refuse to start another; both raise
        :class:`~repro.errors.EvaluationError`.  The check at statement
        start is what makes the budget hold across pure-Python phases
        (compilation) between short statements, which the running-statement
        hook never sees.  The query server's per-request budget; it runs on
        the calling thread, with no timer thread.
        """
        if seconds is None:
            yield
            return
        deadline = time.perf_counter() + seconds
        self._deadline = deadline
        self.backend.set_deadline(self._connection, deadline)
        try:
            yield
        finally:
            self._deadline = None
            self.backend.set_deadline(self._connection, None)

    def _check_deadline(self, sql: str) -> None:
        """Refuse to start ``sql`` once the :meth:`deadline` has passed."""
        if self._deadline is not None and time.perf_counter() >= self._deadline:
            raise EvaluationError(
                f"deadline passed before the statement started\n  {sql}"
            )

    def rollback(self) -> None:
        """Roll back the current transaction."""
        self.backend.rollback(self._connection)
        self._scratch.clear()

    def snapshot_to(self, dest_path: str) -> None:
        """Copy a consistent snapshot of this database into ``dest_path``.

        The cluster's replication transport: a replica file is refreshed by
        copying the primary's current committed state, atomically from the
        perspective of the replica's own readers.  Goes through the backend
        interface so a second engine only needs to implement
        ``SqlBackend.snapshot_to`` to gain replicas.

        Raises:
            EvaluationError: the backend has no snapshot-copy support
                (``supports_snapshot_copy``), or the copy failed.
        """
        if not self.backend.capabilities.supports_snapshot_copy:
            raise EvaluationError(
                f"backend {self.backend.name!r} does not support "
                "snapshot copy"
            )
        with self._execute_lock:
            try:
                self.backend.snapshot_to(self._connection, dest_path)
            except self.backend.driver_errors as error:
                raise EvaluationError(
                    f"snapshot copy to {dest_path!r} failed: {error}"
                ) from error

    @contextlib.contextmanager
    def transaction(self) -> Iterator[None]:
        """Run the block as one explicit transaction.

        Commits on success, rolls back on error.  Any implicitly opened
        transaction is committed first, so the block really starts at a
        transaction boundary; nested calls join the outer transaction.  The
        ``BEGIN``/``COMMIT`` bookends run outside :meth:`execute` and are
        *not* counted by :class:`Statistics` — batching changes when work is
        journalled, not which statements the application issued (so phase
        breakdowns stay comparable to the paper's Test 6).
        """
        if self._in_explicit_transaction:
            yield
            return
        if self.backend.in_transaction(self._connection):
            self.backend.commit(self._connection)
        self.backend.begin(self._connection)
        self._in_explicit_transaction = True
        try:
            yield
        except BaseException:
            self.backend.rollback(self._connection)
            self._scratch.clear()
            raise
        else:
            self.backend.commit(self._connection)
        finally:
            self._in_explicit_transaction = False

    @staticmethod
    def _statement_kind(sql: str) -> str:
        match = _STATEMENT_KIND_RE.match(sql)
        return match.group(1).upper() if match else "OTHER"

    # -- schema helpers -----------------------------------------------------

    @property
    def temp_only(self) -> bool:
        """Whether this handle confines derived relations to ``temp``."""
        return self.options.temp_derived

    def create_relation(
        self, schema: RelationSchema, temporary: bool = False
    ) -> None:
        """Create a relation table for ``schema``.

        On a ``temp_derived`` handle every relation is created in the
        connection-private ``temp`` namespace regardless of ``temporary`` —
        reader sessions never write shared tables.
        """
        self.execute(
            schema.create_table_sql(temporary=temporary or self.temp_only)
        )

    def drop_relation(self, name: str, if_exists: bool = True) -> None:
        """Drop a relation table.

        On a ``temp_derived`` handle the drop is qualified to the ``temp``
        namespace, so a reader session can never drop a shared main-database
        table that happens to share a scratch relation's name.
        """
        clause = "IF EXISTS " if if_exists else ""
        qualifier = "temp." if self.temp_only else ""
        self.execute(f"DROP TABLE {clause}{qualifier}{quote_identifier(name)}")

    def table_exists(self, name: str) -> bool:
        """Whether a (permanent or temporary) table ``name`` exists."""
        sql, parameters = self.backend.table_exists_query(name)
        return bool(self.execute(sql, parameters))

    def table_names(self) -> list[str]:
        """All permanent table names."""
        rows = self.execute(self.backend.table_names_query())
        return [name for (name,) in rows]

    def insert_rows(
        self, schema: RelationSchema, rows: Iterable[Sequence[Any]], name: str | None = None
    ) -> int:
        """Bulk-insert ``rows`` into the relation; return the count."""
        return self.executemany(schema.insert_sql(name), rows)

    def row_count(self, name: str) -> int:
        """Number of rows in a relation."""
        rows = self.execute(f"SELECT COUNT(*) FROM {quote_identifier(name)}")
        return int(rows[0][0])

    def fetch_all(self, name: str) -> list[tuple]:
        """All rows of a relation, in arbitrary order."""
        return self.execute(f"SELECT * FROM {quote_identifier(name)}")

    def execute_in(self, sql: str, values: Sequence[Any]) -> list[tuple]:
        """Run a query over an ``IN`` list of ``values``; return every row.

        Each ``{in}`` in ``sql`` becomes a placeholder list bound to the
        same values.  A list longer than the backend's host-parameter limit
        (``max_host_parameters``) is sliced, one statement per slice, and
        the rows are concatenated: a caller wanting distinct rows across
        slices deduplicates them itself.  No values, no statement.
        """
        if not values:
            return []
        copies = sql.count("{in}")
        limit = self.capabilities.max_host_parameters
        size = len(values) if limit is None else max(1, limit // copies)
        rows: list[tuple] = []
        for start in range(0, len(values), size):
            chunk = list(values[start : start + size])
            placeholders = ", ".join(["?"] * len(chunk))
            rows.extend(self.execute(sql.replace("{in}", placeholders), chunk * copies))
        return rows

    def create_index(self, name: str, table: str, columns: Sequence[str]) -> None:
        """Create an index (the paper indexes its catalog relations)."""
        column_list = ", ".join(quote_identifier(c) for c in columns)
        self.execute(
            f"CREATE INDEX IF NOT EXISTS {quote_identifier(name)} "
            f"ON {quote_identifier(table)} ({column_list})"
        )

    def scratch_relation(self, name: str, types: Sequence[str]) -> str:
        """An empty connection-private ``temp`` relation with a stable name.

        Created on first use and kept for the life of the handle; every
        call empties it with ``DELETE``, so a warm caller issues no DDL and
        only statement texts its first call already prepared.  Temporary
        DDL is transactional, so a rollback can take the table with it: the
        handle then forgets every scratch relation and re-creates each on
        its next use — dropping any survivor first, which also covers a
        change of column ``types``.  Returns ``name``.
        """
        types = tuple(types)
        if self._scratch.get(name) != types:
            self.execute(f"DROP TABLE IF EXISTS temp.{quote_identifier(name)}")
            self.create_relation(RelationSchema(name, types), temporary=True)
            self._scratch[name] = types
        self.execute(f"DELETE FROM {quote_identifier(name)}")
        return name

    def observe(self, sql: str, parameters: Sequence[Any] = ()) -> list[tuple]:
        """Uncounted read for the observability layer.

        Runs on the raw connection, bypassing both the statement cache and
        :class:`Statistics`, so the tracer can probe the database (EXPLAIN
        plans, delta cardinalities) without perturbing the statement stream
        the experiments measure.  Never use this for engine work.
        """
        cursor = self._connection.execute(sql, tuple(parameters))
        return cursor.fetchall()

    def explain_plan(self, sql: str, parameters: Sequence[Any] = ()) -> list[str]:
        """The DBMS's access-path plan for ``sql`` (EXPLAIN QUERY PLAN).

        A demonstration aid: the testbed surfaces how the underlying DBMS
        would execute a generated statement (which indexes the join uses,
        where full scans remain).
        """
        rows = self.execute(f"EXPLAIN QUERY PLAN {sql}", parameters)
        return [str(row[-1]) for row in rows]
