"""Relation schemas, and the D/KB file format: one declaration, one
creating transaction."""

from __future__ import annotations

import os
import sqlite3

import pytest

from repro import Testbed, TestbedConfig
from repro.dbms.backends import SqliteBackend
from repro.dbms.backends.duck import duckdb_available
from repro.dbms.engine import Database
from repro.dbms.schema import (
    CATALOG_INDEXES,
    CATALOG_RELATIONS,
    RelationSchema,
    column_name,
    column_names,
    quote_identifier,
    schema_for,
    validate_row,
)
from repro.errors import EvaluationError
from repro.server import SessionPool
from repro.server.pool import read_version


class TestColumns:
    def test_column_name(self):
        assert column_name(0) == "c0"
        assert column_name(12) == "c12"

    def test_column_names(self):
        assert column_names(3) == ("c0", "c1", "c2")
        assert column_names(0) == ()


class TestRelationSchema:
    def test_arity(self):
        schema = RelationSchema("r", ("TEXT", "INTEGER"))
        assert schema.arity == 2
        assert schema.columns == ("c0", "c1")

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            RelationSchema("", ("TEXT",))

    def test_rejects_bad_type(self):
        with pytest.raises(ValueError):
            RelationSchema("r", ("BLOB",))

    def test_create_table_sql(self):
        schema = RelationSchema("r", ("TEXT", "INTEGER"))
        assert schema.create_table_sql() == (
            'CREATE TABLE "r" (c0 TEXT, c1 INTEGER)'
        )

    def test_create_temporary(self):
        schema = RelationSchema("r", ("TEXT",))
        assert schema.create_table_sql(temporary=True).startswith(
            "CREATE TEMPORARY TABLE"
        )

    def test_create_under_other_name(self):
        schema = RelationSchema("r", ("TEXT",))
        assert '"other"' in schema.create_table_sql(name="other")

    def test_insert_sql(self):
        schema = RelationSchema("r", ("TEXT", "INTEGER"))
        assert schema.insert_sql() == 'INSERT INTO "r" VALUES (?, ?)'

    def test_renamed(self):
        schema = RelationSchema("r", ("TEXT",)).renamed("s")
        assert schema.name == "s"
        assert schema.types == ("TEXT",)

    def test_schema_for_accepts_iterables(self):
        schema = schema_for("r", ["TEXT", "TEXT"])
        assert schema.types == ("TEXT", "TEXT")


class TestQuoting:
    def test_plain_identifier(self):
        assert quote_identifier("table") == '"table"'

    def test_embedded_quote_doubled(self):
        assert quote_identifier('we"ird') == '"we""ird"'


class TestValidateRow:
    SCHEMA = RelationSchema("r", ("TEXT", "INTEGER"))

    def test_good_row(self):
        validate_row(self.SCHEMA, ("a", 1))

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            validate_row(self.SCHEMA, ("a",))

    def test_wrong_types(self):
        with pytest.raises(ValueError):
            validate_row(self.SCHEMA, ("a", "b"))
        with pytest.raises(ValueError):
            validate_row(self.SCHEMA, (1, 1))


# -- the D/KB file format ---------------------------------------------------

CATALOG_NAMES = {*CATALOG_RELATIONS, *CATALOG_INDEXES}

BACKENDS = [
    "sqlite",
    pytest.param(
        "duckdb",
        marks=pytest.mark.skipif(
            not duckdb_available(), reason="duckdb not installed"
        ),
    ),
]


@pytest.fixture
def dkb_path(tmp_path):
    return os.path.join(tmp_path, "dkb.sqlite")


def catalog_names_on_disk(path: str) -> set[str]:
    connection = sqlite3.connect(path)
    try:
        rows = connection.execute("SELECT name FROM sqlite_master").fetchall()
    finally:
        connection.close()
    return {name for (name,) in rows} & CATALOG_NAMES


@pytest.fixture
def executed(monkeypatch):
    """Every statement a ``Database`` runs, with whether an explicit
    transaction was open around it."""
    log: list[tuple[str, bool]] = []
    original = Database.execute

    def execute(self, sql, parameters=()):
        log.append((sql, self._in_explicit_transaction))
        return original(self, sql, parameters)

    monkeypatch.setattr(Database, "execute", execute)
    return log


@pytest.fixture
def traced(monkeypatch):
    """Per connection opened, its options and every statement SQLite saw
    after connect (``BEGIN``/``COMMIT`` included)."""
    connections: list[tuple[object, list[str]]] = []
    original = SqliteBackend.connect

    def connect(self, path, options):
        connection = original(self, path, options)
        statements: list[str] = []
        connection.set_trace_callback(statements.append)
        connections.append((options, statements))
        return connection

    monkeypatch.setattr(SqliteBackend, "connect", connect)
    return connections


def ddl(statements):
    return [s for s in statements if s.lstrip().upper().startswith(("CREATE", "DROP"))]


class TestPartialCatalog:
    def test_file_holding_part_of_the_catalog_opens_and_is_completed(
        self, dkb_path
    ):
        # What a kill between two autocommitted CREATEs of an older open
        # left behind.
        connection = sqlite3.connect(dkb_path)
        connection.execute(
            "CREATE TABLE ipredicates "
            "(predname TEXT PRIMARY KEY, arity INTEGER NOT NULL)"
        )
        connection.commit()
        connection.close()
        with Testbed(TestbedConfig(path=dkb_path)) as testbed:
            testbed.define("p(X) :- q(X).")
            testbed.update_stored_dkb()
            assert testbed.stored.rule_count() == 1
        assert catalog_names_on_disk(dkb_path) == CATALOG_NAMES

    def test_failed_first_open_leaves_no_catalog_and_reopens(
        self, dkb_path, monkeypatch
    ):
        original = Database.execute
        creates = []

        def execute(self, sql, parameters=()):
            if sql.lstrip().upper().startswith("CREATE"):
                creates.append(sql)
                if len(creates) == 5:
                    raise EvaluationError("injected failure at the 5th CREATE")
            return original(self, sql, parameters)

        monkeypatch.setattr(Database, "execute", execute)
        with pytest.raises(EvaluationError, match="5th CREATE"):
            Testbed(TestbedConfig(path=dkb_path))
        monkeypatch.setattr(Database, "execute", original)
        assert catalog_names_on_disk(dkb_path) == set()
        with Testbed(TestbedConfig(path=dkb_path)) as testbed:
            assert read_version(testbed.database) == 0
        assert catalog_names_on_disk(dkb_path) == CATALOG_NAMES


class TestOpenCost:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fresh_file_created_in_one_transaction_reopens_without_ddl(
        self, tmp_path, backend, executed
    ):
        path = os.path.join(tmp_path, f"dkb.{backend}")
        Testbed(TestbedConfig(path=path, backend=backend)).close()
        creates = [(sql, inside) for sql, inside in executed if "CREATE" in sql]
        assert len(creates) == len(CATALOG_NAMES)
        assert all(inside for __, inside in creates)
        executed.clear()
        with Testbed(TestbedConfig(path=path, backend=backend)) as testbed:
            assert len(executed) == 1, executed
            assert not ddl(sql for sql, __ in executed)
            assert read_version(testbed.database) == 0

    def test_reopening_a_complete_file_is_one_statement(self, dkb_path, traced):
        Testbed(TestbedConfig(path=dkb_path)).close()
        traced.clear()
        with Testbed(TestbedConfig(path=dkb_path)) as testbed:
            (__, statements), = traced
            assert len(statements) == 1, statements
            assert testbed.database.statistics.total.statements == 1

    def test_pool_readers_on_a_complete_file_never_write(self, dkb_path, traced):
        with SessionPool(dkb_path, readers=1):
            pass
        traced.clear()
        with SessionPool(dkb_path, readers=2):
            readers = [s for options, s in traced if options.temp_derived]
            assert len(readers) == 2
            for statements in [s for __, s in traced]:
                assert not ddl(statements), statements
            for statements in readers:
                assert not any(
                    s.lstrip().upper().startswith("BEGIN") for s in statements
                ), statements

    def test_fresh_in_memory_open_statement_count(self):
        with Testbed() as testbed:
            total = testbed.database.statistics.total
            # One probe, one CREATE per declared name, the version row.
            assert total.statements == 1 + len(CATALOG_NAMES) + 1 == 18
            assert total.by_kind == {
                "SELECT": 1, "CREATE": len(CATALOG_NAMES), "INSERT": 1,
            }


def test_testbed_only_dkb_has_a_version(dkb_path):
    """A D/KB never opened by a ``SessionPool`` carries ``dkbversion``."""
    with Testbed(TestbedConfig(path=dkb_path)) as testbed:
        testbed.define_base_relation("e", ("TEXT", "TEXT"))
        assert read_version(testbed.database) == 0
    with Testbed() as testbed:
        assert read_version(testbed.database) == 0


def test_file_journals_in_wal_and_memory_stays_in_memory(dkb_path):
    with Testbed(TestbedConfig(path=dkb_path)) as testbed:
        assert testbed.database.execute("PRAGMA journal_mode") == [("wal",)]
    with Testbed() as testbed:
        assert testbed.database.execute("PRAGMA journal_mode") == [("memory",)]
