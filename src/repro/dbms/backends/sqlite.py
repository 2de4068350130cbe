"""The SQLite backend: the testbed's default (and reference) engine.

This is the connection-management code factored out of the original
single-engine ``repro.dbms.engine``; its observable behaviour — the pragmas
issued at connect time, the statements generated for catalog probes, the
exception types wrapped — is byte-for-byte what the seed implementation
did, so traced statement sequences on the default backend are unchanged.
"""

from __future__ import annotations

import sqlite3
from typing import TYPE_CHECKING, Any

from .base import BackendCapabilities, SqlBackend

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import ConnectionOptions


class SqliteBackend(SqlBackend):
    """:mod:`sqlite3` with the testbed's connection configuration."""

    name = "sqlite"
    capabilities = BackendCapabilities(
        supports_recursive_cte=True,
        supports_wal=True,
        supports_temp_namespace=True,
        supports_without_rowid=True,
        supports_changes_function=True,
        supports_interrupt=True,
        supports_shared_cursors=True,
        supports_snapshot_copy=True,
        # SQLITE_MAX_COMPOUND_SELECT's compiled-in default.
        max_compound_select=500,
    )

    def connect(self, path: str, options: "ConnectionOptions") -> Any:
        connection = sqlite3.connect(
            path, check_same_thread=options.check_same_thread
        )
        connection.execute("PRAGMA synchronous = OFF")
        if options.wal:
            connection.execute("PRAGMA journal_mode = WAL")
        else:
            connection.execute("PRAGMA journal_mode = MEMORY")
        if options.busy_timeout_ms:
            connection.execute(
                f"PRAGMA busy_timeout = {int(options.busy_timeout_ms)}"
            )
        return connection

    @property
    def driver_errors(self) -> tuple[type[BaseException], ...]:
        return (sqlite3.Error,)

    def begin(self, connection: Any) -> None:
        connection.execute("BEGIN")

    def in_transaction(self, connection: Any) -> bool:
        return bool(connection.in_transaction)

    def table_exists_query(self, name: str) -> tuple[str, tuple]:
        return (
            "SELECT name FROM sqlite_master WHERE type = 'table' AND name = ? "
            "UNION ALL "
            "SELECT name FROM sqlite_temp_master WHERE type = 'table' AND name = ?",
            (name, name),
        )

    def table_names_query(self) -> str:
        return "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"

    def recursive_insert_sql(
        self, with_clause: str, insert_into: str, select_stmt: str
    ) -> str:
        # SQLite attaches the WITH clause before the INSERT keyword.
        return f"WITH RECURSIVE {with_clause} {insert_into} {select_stmt}"

    def snapshot_to(self, connection: Any, dest_path: str) -> None:
        # The online backup API: copies the whole main database inside one
        # destination write transaction, so destination readers switch
        # atomically from the old snapshot to the new — including a live
        # WAL-mode replica file served by another process's session pool.
        dest = sqlite3.connect(dest_path)
        try:
            dest.execute("PRAGMA busy_timeout = 10000")
            connection.backup(dest)
        finally:
            dest.close()
