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
``supports_deadline``, ...) and pick a portable plan when a feature
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
            plan of linear cliques can be evaluated in one statement
            (:mod:`repro.runtime.lfp_cte`).
        supports_deadline: a running statement can be aborted once a
            deadline passes (:meth:`SqlBackend.set_deadline`, the query
            server's per-request budget).  Without it
            :meth:`~repro.dbms.engine.Database.deadline` still refuses to
            start a statement after the deadline.
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
        max_host_parameters: the most ``?`` placeholders one statement may
            bind (``None`` = unbounded); longer ``IN`` lists are sliced
            (:meth:`~repro.dbms.engine.Database.execute_in`).
    """

    supports_recursive_cte: bool = True
    supports_deadline: bool = False
    supports_shared_cursors: bool = False
    supports_snapshot_copy: bool = False
    max_compound_select: int | None = None
    max_host_parameters: int | None = None


class SqlBackend(abc.ABC):
    """Everything driver-specific about one SQL engine.

    Implementations are stateless: one backend instance can serve any
    number of :class:`~repro.dbms.engine.Database` handles.
    """

    #: Registry name of the backend (``"sqlite"``, ``"duckdb"``, ...).
    name: ClassVar[str]
    #: Engine feature flags, used by the evaluation strategies.
    capabilities: ClassVar[BackendCapabilities]
    #: Query returning one ``(name,)`` row per table or index, permanent or
    #: temporary, named in the ``{in}`` list
    #: (:meth:`~repro.dbms.engine.Database.existing_names`).
    existing_names_sql: ClassVar[str]

    @abc.abstractmethod
    def connect(self, path: str, options: "ConnectionOptions") -> Any:
        """Open and configure a DB-API-style connection.

        Raises:
            EvaluationError: when ``options`` asks for a feature the engine
                does not support (e.g. a private ``temp`` namespace), or the
                optional driver package is not installed.
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

    def set_deadline(self, connection: Any, deadline: float | None) -> None:
        """Abort statements on ``connection`` still running at ``deadline``.

        ``deadline`` is a :func:`time.perf_counter` instant; ``None``
        removes the hook.  A no-op on backends without
        ``supports_deadline``.
        """

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
    def table_names_query(self) -> str:
        """SQL returning one ``(name,)`` row per permanent table, ordered."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
