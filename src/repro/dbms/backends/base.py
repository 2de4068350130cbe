"""The abstract SQL backend interface.

The paper's testbed layers its knowledge management on "a commercial
relational database management system" reached exclusively through SQL; the
reproduction should be able to swap that DBMS to show its results are
shape- rather than engine-dependent.  A :class:`SqlBackend` encapsulates
everything driver-specific — how a connection is opened and configured,
which exception types the driver raises, how the catalog is introspected,
and which SQL dialect features are available — while
:class:`~repro.dbms.engine.Database` keeps the instrumentation (statement
counting, phases, tracing) engine-neutral.

Capability flags, not feature sniffing: the evaluation strategies ask the
backend what it supports (``supports_recursive_cte``,
``supports_changes_function``, ...) and pick a portable plan when a feature
is missing, so a query never errors because of the engine underneath it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..engine import ConnectionOptions


@dataclass(frozen=True)
class BackendCapabilities:
    """What the engine underneath a :class:`SqlBackend` can do.

    Attributes:
        supports_recursive_cte: ``WITH RECURSIVE`` is available, so a whole
            linear clique can be evaluated in one statement
            (:mod:`repro.runtime.lfp_cte`).
        supports_wal: write-ahead-log journalling (the concurrent query
            server's reader/writer mode) can be enabled.
        supports_temp_namespace: a per-connection ``temp.`` namespace exists
            and shadows same-named main-database tables — required by
            ``ConnectionOptions(temp_derived=True)`` reader sessions.
        supports_without_rowid: ``WITHOUT ROWID`` keyed tables and
            ``INSERT OR IGNORE`` — the storage layout of the in-DBMS LFP
            operator (:mod:`repro.runtime.lfp`).
        supports_changes_function: ``SELECT changes()`` reports the row
            count of the previous DML statement (the LFP operator's
            termination signal).
        supports_interrupt: a running statement can be aborted from another
            thread (the query server's per-request timeout).
        supports_shared_cursors: cursors created from one connection share
            its session state (temp tables, transactions), which is what
            makes the prepared-statement cursor cache sound.  Engines whose
            ``.cursor()`` clones the connection (DuckDB) must run uncached.
        supports_snapshot_copy: the engine can copy a transactionally
            consistent snapshot of the whole database into another database
            file while both stay live (SQLite's online backup API) — the
            replication transport of the cluster's read replicas
            (:mod:`repro.cluster.replica`).
        max_compound_select: the most arms one compound SELECT may have
            (``None`` = unbounded); a recursive CTE with more falls back to
            the iteration loop instead of failing.
    """

    supports_recursive_cte: bool = True
    supports_wal: bool = False
    supports_temp_namespace: bool = False
    supports_without_rowid: bool = False
    supports_changes_function: bool = False
    supports_interrupt: bool = False
    supports_shared_cursors: bool = False
    supports_snapshot_copy: bool = False
    max_compound_select: int | None = None


class SqlBackend(abc.ABC):
    """Everything driver-specific about one SQL engine.

    Implementations are stateless: one backend instance can serve any
    number of :class:`~repro.dbms.engine.Database` handles.
    """

    #: Registry name of the backend (``"sqlite"``, ``"duckdb"``, ...).
    name: ClassVar[str]
    #: Engine feature flags, used by the evaluation strategies.
    capabilities: ClassVar[BackendCapabilities]

    @abc.abstractmethod
    def connect(self, path: str, options: "ConnectionOptions") -> Any:
        """Open and configure a DB-API-style connection.

        Raises:
            EvaluationError: when ``options`` asks for a feature the engine
                does not support (e.g. WAL journalling), or the optional
                driver package is not installed.
        """

    @property
    @abc.abstractmethod
    def driver_errors(self) -> tuple[type[BaseException], ...]:
        """Exception classes the driver raises, wrapped into EvaluationError."""

    # -- transactions -------------------------------------------------------

    @abc.abstractmethod
    def begin(self, connection: Any) -> None:
        """Open an explicit transaction on ``connection``."""

    @abc.abstractmethod
    def in_transaction(self, connection: Any) -> bool:
        """Whether ``connection`` currently holds an open transaction."""

    def commit(self, connection: Any) -> None:
        """Commit the current transaction (no-op when none is open)."""
        connection.commit()

    def rollback(self, connection: Any) -> None:
        """Roll back the current transaction (no-op when none is open)."""
        connection.rollback()

    def interrupt(self, connection: Any) -> None:
        """Abort the statement running on ``connection``, if supported."""
        if self.capabilities.supports_interrupt:
            connection.interrupt()

    def snapshot_to(self, connection: Any, dest_path: str) -> None:
        """Copy a consistent snapshot of ``connection``'s database to a file.

        The copy is transactionally consistent — readers of the destination
        see either the old database or the new one, never a torn mix — and
        both databases stay live throughout.

        Raises:
            NotImplementedError: when ``supports_snapshot_copy`` is False.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not support snapshot copy"
        )

    # -- catalog introspection ----------------------------------------------

    @abc.abstractmethod
    def table_exists_query(self, name: str) -> tuple[str, tuple]:
        """``(sql, parameters)`` returning a row iff table ``name`` exists."""

    @abc.abstractmethod
    def table_names_query(self) -> str:
        """SQL returning one ``(name,)`` row per permanent table, ordered."""

    # -- dialect ------------------------------------------------------------

    def recursive_insert_sql(
        self, with_clause: str, insert_into: str, select_stmt: str
    ) -> str:
        """Compose ``WITH RECURSIVE`` + ``INSERT`` + ``SELECT`` as one statement.

        Engines disagree on where the WITH clause attaches (SQLite: before
        the INSERT; DuckDB: on the INSERT's SELECT), so the composition is a
        backend decision.

        Raises:
            NotImplementedError: when ``supports_recursive_cte`` is False.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not support recursive CTEs"
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
