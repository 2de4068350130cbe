"""The DuckDB backend: a second in-process engine, optional dependency.

DuckDB speaks close-enough ANSI SQL that the generated project-select-join
statements, ``EXCEPT`` differences, and recursive CTEs run unchanged; what
differs is everything around them, captured in the capability flags:

* ``.cursor()`` clones the connection (its own temp namespace and
  transaction), so the prepared-cursor statement cache is unsound —
  ``supports_shared_cursors`` is False and the engine runs uncached;
* ``rowcount`` is unreliable for DML, so per-statement ``rows_changed``
  statistics are best-effort (counts stay comparable *within* a backend,
  which is all the A/B benches compare);
* the ``temp.``-qualified namespace of reader sessions is SQLite-specific;
  the server's reader connection options are rejected at connect time
  rather than silently misbehaving;
* there is no progress-handler hook, so a running statement outlives a
  :meth:`~repro.dbms.engine.Database.deadline` (``supports_deadline`` is
  False); the deadline still stops the next statement from starting.

The ``duckdb`` package is deliberately **not** imported at module load: the
backend registers itself unconditionally, and only :meth:`connect` needs
the driver, raising a clear error when the extra is not installed.
"""

from __future__ import annotations

import importlib
import importlib.util
from typing import TYPE_CHECKING, Any

from ...errors import EvaluationError
from .base import BackendCapabilities, SqlBackend

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import ConnectionOptions


def duckdb_available() -> bool:
    """Whether the optional ``duckdb`` driver package is importable."""
    return importlib.util.find_spec("duckdb") is not None


class DuckDbBackend(SqlBackend):
    """In-process DuckDB, loaded lazily from the optional extra."""

    name = "duckdb"
    capabilities = BackendCapabilities(
        supports_recursive_cte=True,
        supports_shared_cursors=False,
    )
    existing_names_sql = (
        "SELECT table_name FROM information_schema.tables "
        "WHERE table_name IN ({in}) UNION ALL "
        "SELECT index_name FROM duckdb_indexes() WHERE index_name IN ({in})"
    )

    def _module(self) -> Any:
        try:
            return importlib.import_module("duckdb")
        except ImportError as error:
            raise EvaluationError(
                "the 'duckdb' backend needs the optional duckdb package; "
                "install the project's [duckdb] extra or pick backend='sqlite'"
            ) from error

    def connect(self, path: str, options: "ConnectionOptions") -> Any:
        duckdb = self._module()
        if options.temp_derived:
            raise EvaluationError(
                "the duckdb backend has no connection-private temp namespace "
                "for derived relations (temp_derived requires backend='sqlite')"
            )
        return duckdb.connect(path)

    @property
    def driver_errors(self) -> tuple[type[BaseException], ...]:
        duckdb = self._module()
        return (duckdb.Error,)

    def begin(self, connection: Any) -> None:
        connection.execute("BEGIN TRANSACTION")

    def in_transaction(self, connection: Any) -> bool:
        # DuckDB's python API exposes no transaction-state probe; the
        # Database layer tracks explicit transactions itself, and implicit
        # ones commit per statement (autocommit), so "no" is always sound
        # for the commit-before-BEGIN use this feeds.
        return False

    def commit(self, connection: Any) -> None:
        try:
            connection.commit()
        except self.driver_errors:
            # Committing with no transaction open is an error in DuckDB but
            # a no-op in sqlite3; normalise to the no-op contract.
            pass

    def rollback(self, connection: Any) -> None:
        try:
            connection.rollback()
        except self.driver_errors:
            pass

    def table_names_query(self) -> str:
        return (
            "SELECT table_name FROM information_schema.tables "
            "WHERE table_type = 'BASE TABLE' ORDER BY table_name"
        )
