"""The pluggable SQL backend registry and its two implementations."""

from __future__ import annotations

import pytest

from repro.dbms.backends import (
    DEFAULT_BACKEND,
    DuckDbBackend,
    SqlBackend,
    SqliteBackend,
    available_backends,
    backend_available,
    get_backend,
    registered_backends,
)
from repro.dbms.backends.duck import duckdb_available
from repro.dbms.engine import ConnectionOptions, Database
from repro.errors import EvaluationError

HAS_DUCKDB = duckdb_available()


class TestRegistry:
    def test_both_backends_registered(self):
        assert set(registered_backends()) == {"sqlite", "duckdb"}
        assert DEFAULT_BACKEND == "sqlite"

    def test_sqlite_always_available(self):
        assert backend_available("sqlite")
        assert "sqlite" in available_backends()

    def test_get_backend_defaults_to_sqlite(self):
        assert isinstance(get_backend(None), SqliteBackend)
        assert isinstance(get_backend("sqlite"), SqliteBackend)

    def test_get_backend_passes_instances_through(self):
        backend = SqliteBackend()
        assert get_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(EvaluationError, match="unknown SQL backend"):
            get_backend("postgres")

    def test_backends_are_sql_backends(self):
        assert issubclass(SqliteBackend, SqlBackend)
        assert issubclass(DuckDbBackend, SqlBackend)


class TestCapabilities:
    def test_sqlite_capabilities(self):
        caps = SqliteBackend.capabilities
        assert caps.supports_recursive_cte
        assert caps.supports_shared_cursors
        assert caps.supports_wal
        assert caps.supports_temp_namespace
        assert caps.supports_deadline

    def test_duckdb_capabilities(self):
        caps = DuckDbBackend.capabilities
        assert caps.supports_recursive_cte
        # Cursors clone the connection, so the statement cache stands down.
        assert not caps.supports_shared_cursors
        assert not caps.supports_wal
        assert not caps.supports_temp_namespace
        # No progress handler: only the check at statement start applies.
        assert not caps.supports_deadline

    def test_database_surfaces_capabilities(self, database):
        assert database.capabilities is database.backend.capabilities
        assert database.backend.name == "sqlite"


class TestDuckDbGating:
    @pytest.mark.skipif(HAS_DUCKDB, reason="duckdb is installed")
    def test_missing_driver_is_a_clean_error(self):
        assert not backend_available("duckdb")
        assert "duckdb" not in available_backends()
        with pytest.raises(EvaluationError, match="duckdb"):
            Database(backend="duckdb")

    @pytest.mark.skipif(not HAS_DUCKDB, reason="duckdb not installed")
    def test_duckdb_database_runs_sql(self):
        db = Database(backend="duckdb")
        try:
            db.execute("CREATE TABLE t (c0 INTEGER)")
            db.execute("INSERT INTO t VALUES (1), (2)")
            assert db.execute("SELECT COUNT(*) FROM t") == [(2,)]
            assert db.table_exists("t")
            assert "t" in db.table_names()
        finally:
            db.close()

    @pytest.mark.skipif(not HAS_DUCKDB, reason="duckdb not installed")
    def test_duckdb_rejects_wal(self):
        with pytest.raises(EvaluationError, match="WAL"):
            Database(backend="duckdb", options=ConnectionOptions(wal=True))


class TestSqliteBackendEquivalence:
    def test_default_database_uses_sqlite_backend(self):
        db = Database()
        try:
            assert isinstance(db.backend, SqliteBackend)
            # The seed behaviours ride on the capability flags.
            assert db.capabilities.supports_shared_cursors
        finally:
            db.close()

    def test_transaction_roundtrip(self, database):
        database.execute("CREATE TABLE t (c0 INTEGER)")
        with database.transaction():
            database.execute("INSERT INTO t VALUES (1)")
        assert database.execute("SELECT COUNT(*) FROM t") == [(1,)]
