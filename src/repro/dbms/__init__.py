"""The DBMS substrate: an instrumented embedded-SQL interface over SQLite.

Stands in for the commercial relational DBMS of the paper's testbed.  The
Knowledge Manager and Run Time Library interact with it exclusively through
SQL statements, which :class:`~repro.dbms.engine.Database` counts, times, and
attributes to named phases for the experiment harness.
"""

from .backends import (
    BackendCapabilities,
    DuckDbBackend,
    SqlBackend,
    SqliteBackend,
    available_backends,
    backend_available,
    get_backend,
    registered_backends,
)
from .catalog import ExtensionalCatalog, fact_table_name
from .engine import Database, PhaseStats, StatementCache, Statistics
from .schema import RelationSchema, column_name, column_names, quote_identifier
from .sqlgen import (
    CompiledSelect,
    compile_rule_body,
    copy_sql,
    difference_sql,
    insert_new_tuples_sql,
)

__all__ = [
    "BackendCapabilities",
    "CompiledSelect",
    "Database",
    "DuckDbBackend",
    "ExtensionalCatalog",
    "PhaseStats",
    "RelationSchema",
    "SqlBackend",
    "SqliteBackend",
    "StatementCache",
    "Statistics",
    "available_backends",
    "backend_available",
    "get_backend",
    "registered_backends",
    "column_name",
    "column_names",
    "compile_rule_body",
    "copy_sql",
    "difference_sql",
    "fact_table_name",
    "insert_new_tuples_sql",
    "quote_identifier",
]
