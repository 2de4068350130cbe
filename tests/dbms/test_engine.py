"""Unit tests for the instrumented Database engine."""

import pytest

from repro.dbms.engine import Database, PhaseStats, Statistics
from repro.dbms.schema import RelationSchema
from repro.errors import EvaluationError


class TestExecute:
    def test_select_returns_rows(self, database):
        rows = database.execute("SELECT 1, 'a'")
        assert rows == [(1, "a")]

    def test_ddl_returns_empty(self, database):
        assert database.execute("CREATE TABLE t (x INTEGER)") == []

    def test_parameters(self, database):
        database.execute("CREATE TABLE t (x INTEGER)")
        database.execute("INSERT INTO t VALUES (?)", (42,))
        assert database.execute("SELECT x FROM t") == [(42,)]

    def test_sql_error_wrapped(self, database):
        with pytest.raises(EvaluationError):
            database.execute("SELECT * FROM no_such_table")

    def test_executemany(self, database):
        database.execute("CREATE TABLE t (x INTEGER)")
        count = database.executemany(
            "INSERT INTO t VALUES (?)", [(1,), (2,), (3,)]
        )
        assert count == 3
        assert database.row_count("t") == 3


class TestHelpers:
    def test_create_and_drop_relation(self, database):
        schema = RelationSchema("r", ("TEXT",))
        database.create_relation(schema)
        assert database.table_exists("r")
        database.drop_relation("r")
        assert not database.table_exists("r")

    def test_drop_missing_with_if_exists(self, database):
        database.drop_relation("ghost")  # no error

    def test_temporary_tables_visible(self, database):
        schema = RelationSchema("tmp", ("TEXT",))
        database.create_relation(schema, temporary=True)
        assert database.table_exists("tmp")

    def test_insert_rows_and_fetch(self, database):
        schema = RelationSchema("r", ("TEXT", "INTEGER"))
        database.create_relation(schema)
        database.insert_rows(schema, [("a", 1), ("b", 2)])
        assert sorted(database.fetch_all("r")) == [("a", 1), ("b", 2)]

    def test_table_names(self, database):
        database.create_relation(RelationSchema("zz", ("TEXT",)))
        database.create_relation(RelationSchema("aa", ("TEXT",)))
        names = database.table_names()
        assert names.index("aa") < names.index("zz")

    def test_execute_in_slices_at_the_parameter_limit(self, database):
        limit = database.capabilities.max_host_parameters
        database.execute("CREATE TABLE t (x INTEGER)")
        database.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(limit * 2)])
        database.statistics.reset()
        # Two IN lists per statement: each slice binds half the limit.
        rows = database.execute_in(
            "SELECT x FROM t WHERE x IN ({in}) AND x + 0 IN ({in})",
            list(range(limit + 1)),
        )
        assert sorted(rows) == [(i,) for i in range(limit + 1)]
        assert database.statistics.total.statements == 3

    def test_execute_in_without_values_runs_nothing(self, database):
        database.statistics.reset()
        assert database.execute_in("SELECT 1 WHERE 1 IN ({in})", []) == []
        assert database.statistics.total.statements == 0

    def test_create_index_idempotent(self, database):
        database.create_relation(RelationSchema("r", ("TEXT",)))
        database.create_index("idx_r", "r", ["c0"])
        database.create_index("idx_r", "r", ["c0"])  # no error

    def test_context_manager_closes(self):
        with Database() as db:
            db.execute("SELECT 1")

    def test_rollback(self, database):
        database.execute("CREATE TABLE t (x INTEGER)")
        database.commit()
        database.execute("INSERT INTO t VALUES (1)")
        database.rollback()
        assert database.row_count("t") == 0


class TestStatistics:
    def test_statements_counted_by_kind(self, database):
        database.statistics.reset()
        database.execute("CREATE TABLE t (x INTEGER)")
        database.execute("INSERT INTO t VALUES (1)")
        database.execute("SELECT * FROM t")
        total = database.statistics.total
        assert total.statements == 3
        assert total.by_kind == {"CREATE": 1, "INSERT": 1, "SELECT": 1}

    def test_rows_fetched(self, database):
        database.statistics.reset()
        database.execute("SELECT 1 UNION SELECT 2")
        assert database.statistics.total.rows_fetched == 2

    def test_phase_attribution(self, database):
        database.statistics.reset()
        with database.phase("alpha"):
            database.execute("SELECT 1")
            with database.phase("beta"):
                database.execute("SELECT 2")
                database.execute("SELECT 3")
        stats = database.statistics
        assert stats.phase("alpha").statements == 1
        assert stats.phase("beta").statements == 2

    def test_default_phase(self, database):
        database.statistics.reset()
        database.execute("SELECT 1")
        assert stats_phase_names(database) == {Statistics.DEFAULT_PHASE}

    def test_reset(self, database):
        database.execute("SELECT 1")
        database.statistics.reset()
        assert database.statistics.total.statements == 0

    def test_phase_stack_survives_exceptions(self, database):
        database.statistics.reset()
        with pytest.raises(EvaluationError):
            with database.phase("boom"):
                database.execute("SELECT * FROM missing")
        assert database.statistics.current_phase == Statistics.DEFAULT_PHASE

    def test_merged_with(self):
        one = PhaseStats()
        one.record("SELECT", 0.5, 2, 0)
        two = PhaseStats()
        two.record("SELECT", 0.25, 1, 0)
        two.record("INSERT", 0.25, 0, 3)
        merged = one.merged_with(two)
        assert merged.statements == 3
        assert merged.seconds == 1.0
        assert merged.rows_fetched == 3
        assert merged.rows_changed == 3
        assert merged.by_kind == {"SELECT": 2, "INSERT": 1}


def stats_phase_names(database):
    return set(database.statistics.phases())
