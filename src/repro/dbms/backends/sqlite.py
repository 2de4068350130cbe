"""The SQLite backend: the testbed's default (and reference) engine.

This is the connection-management code factored out of the original
single-engine ``repro.dbms.engine``: the pragmas issued at connect time,
the statements generated for catalog probes, the exception types wrapped.
An in-memory database is opened as the seed implementation opened it; a
file is journalled in WAL.
"""

from __future__ import annotations

import sqlite3
import time
from typing import TYPE_CHECKING, Any

from .base import BackendCapabilities, SqlBackend

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import ConnectionOptions

#: VM instructions between two deadline checks of a running statement.
DEADLINE_CHECK_STEPS = 1000


class SqliteBackend(SqlBackend):
    """:mod:`sqlite3` with the testbed's connection configuration."""

    name = "sqlite"
    capabilities = BackendCapabilities(
        supports_recursive_cte=True,
        supports_deadline=True,
        supports_shared_cursors=True,
        supports_snapshot_copy=True,
        # SQLITE_MAX_COMPOUND_SELECT's compiled-in default.
        max_compound_select=500,
        # SQLITE_MAX_VARIABLE_NUMBER's compiled-in default before 3.32:
        # later releases and most builds allow more, none fewer.
        max_host_parameters=999,
    )
    existing_names_sql = (
        "SELECT name FROM sqlite_master WHERE name IN ({in}) UNION ALL "
        "SELECT name FROM sqlite_temp_master WHERE name IN ({in})"
    )

    def connect(self, path: str, options: "ConnectionOptions") -> Any:
        connection = sqlite3.connect(
            path, check_same_thread=options.check_same_thread
        )
        connection.execute("PRAGMA synchronous = OFF")
        # A file is journalled in WAL: a process killed mid-transaction
        # leaves the last commit, and readers keep snapshots while one
        # writer commits.  Without fsync (synchronous = OFF) that holds
        # against a process kill, not against power loss.
        journal = "MEMORY" if path == ":memory:" else "WAL"
        connection.execute(f"PRAGMA journal_mode = {journal}")
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

    def set_deadline(self, connection: Any, deadline: float | None) -> None:
        # A progress handler returning True aborts the running statement
        # with "interrupted"; it runs on the executing thread, so the budget
        # needs no timer thread.
        if deadline is None:
            connection.set_progress_handler(None, 0)
            return
        expires = deadline
        connection.set_progress_handler(
            lambda: time.perf_counter() >= expires, DEADLINE_CHECK_STEPS
        )

    def table_names_query(self) -> str:
        return "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"

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
