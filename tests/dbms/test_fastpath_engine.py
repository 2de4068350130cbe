"""Tests for the statement cache, transaction scope and rowcount fixes.

Covers the prepared-statement cache (LRU, counters, disabled mode), the
explicit-transaction scope, and the ``executemany`` rowcount fix.
"""

from __future__ import annotations

import pytest

from repro.dbms.engine import (
    Database,
    PhaseStats,
    StatementCache,
)
from repro.errors import EvaluationError


class TestStatementCache:
    def test_counts_hits_and_misses(self, database):
        cache = database.statement_cache
        assert cache is not None
        before_hits, before_misses = cache.hits, cache.misses
        database.execute("SELECT 1")
        database.execute("SELECT 1")
        database.execute("SELECT 2")
        assert cache.hits == before_hits + 1
        assert cache.misses == before_misses + 2

    def test_hit_rate(self):
        cache = StatementCache(capacity=4)
        assert cache.hit_rate == 0.0
        cache.hits, cache.misses = 3, 1
        assert cache.hit_rate == 0.75

    def test_lru_eviction(self, database):
        import sqlite3

        cache = StatementCache(capacity=2)
        connection = sqlite3.connect(":memory:")
        try:
            first, hit = cache.cursor_for(connection, "SELECT 1")
            assert not hit
            cache.cursor_for(connection, "SELECT 2")
            # Touch "SELECT 1" so "SELECT 2" becomes least recently used.
            again, hit = cache.cursor_for(connection, "SELECT 1")
            assert hit and again is first
            cache.cursor_for(connection, "SELECT 3")  # evicts "SELECT 2"
            assert len(cache) == 2
            _, hit = cache.cursor_for(connection, "SELECT 2")
            assert not hit  # was evicted
            _, hit = cache.cursor_for(connection, "SELECT 1")
            assert not hit  # "SELECT 1" was evicted when 2 re-entered
        finally:
            cache.clear()
            connection.close()

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            StatementCache(capacity=0)
        with pytest.raises(ValueError):
            StatementCache(capacity=-3)

    def test_clear_keeps_counters(self, database):
        cache = database.statement_cache
        database.execute("SELECT 1")
        database.execute("SELECT 1")
        hits, misses = cache.hits, cache.misses
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (hits, misses)
        # A cleared cache re-prepares but stays functional.
        assert database.execute("SELECT 1") == [(1,)]

    def test_disabled_cache(self):
        with Database(statement_cache_size=0) as db:
            assert db.statement_cache is None
            db.execute("SELECT 1")
            db.execute("SELECT 1")
            total = db.statistics.total
            assert (total.cache_hits, total.cache_misses) == (0, 0)

    def test_counters_reach_statistics(self, database):
        database.statistics.reset()
        database.execute("SELECT 41")
        database.execute("SELECT 41")
        total = database.statistics.total
        assert total.cache_hits == 1
        assert total.cache_misses == 1

    def test_phase_stats_merge_cache_counters(self):
        left = PhaseStats(cache_hits=2, cache_misses=1)
        right = PhaseStats(cache_hits=3, cache_misses=4)
        merged = left.merged_with(right)
        assert merged.cache_hits == 5
        assert merged.cache_misses == 5


class TestTransactionScope:
    def test_commit_on_success(self, tmp_path):
        path = str(tmp_path / "t.db")
        with Database(path) as db:
            with db.transaction():
                db.execute("CREATE TABLE t (a INTEGER)")
                db.execute("INSERT INTO t VALUES (1)")
        with Database(path) as db:
            assert db.execute("SELECT a FROM t") == [(1,)]

    def test_rollback_on_error(self, database):
        database.execute("CREATE TABLE t (a INTEGER)")
        database.commit()
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.execute("INSERT INTO t VALUES (1)")
                raise RuntimeError("boom")
        assert database.execute("SELECT a FROM t") == []

    def test_nested_scopes_join_outer(self, database):
        database.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.execute("INSERT INTO t VALUES (1)")
                with database.transaction():  # no-op: joins the outer txn
                    database.execute("INSERT INTO t VALUES (2)")
                raise RuntimeError("boom")
        # Both inserts belonged to the single outer transaction.
        assert database.execute("SELECT a FROM t") == []

    def test_bookends_not_counted(self, database):
        database.statistics.reset()
        with database.transaction():
            database.execute("SELECT 1")
            database.execute("SELECT 2")
        # BEGIN/COMMIT are journalling, not application statements; the
        # paper-comparable statement counts must not inflate.
        assert database.statistics.total.statements == 2

    def test_usable_after_scope(self, database):
        with database.transaction():
            database.execute("CREATE TABLE t (a INTEGER)")
        database.execute("INSERT INTO t VALUES (3)")
        database.commit()
        assert database.execute("SELECT a FROM t") == [(3,)]


class TestExecutemanyRowcount:
    def test_update_matching_nothing_reports_zero(self, database):
        database.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        changed = database.executemany(
            "UPDATE t SET b = ? WHERE a = ?", [(10, 1), (20, 2)]
        )
        # Regression: the seed reported len(rows) == 2 here.
        assert changed == 0

    def test_insert_reports_row_count(self, database):
        database.execute("CREATE TABLE t (a INTEGER)")
        changed = database.executemany(
            "INSERT INTO t VALUES (?)", [(1,), (2,), (3,)]
        )
        assert changed == 3

    def test_partial_update_counts_only_matches(self, database):
        database.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        database.executemany("INSERT INTO t VALUES (?, ?)", [(1, 0), (2, 0)])
        changed = database.executemany(
            "UPDATE t SET b = ? WHERE a = ?", [(10, 1), (20, 99)]
        )
        assert changed == 1


class TestErrorPaths:
    def test_cached_execute_wraps_errors(self, database):
        with pytest.raises(EvaluationError):
            database.execute("SELECT * FROM missing_table")
        # And the connection stays usable through the cache afterwards.
        assert database.execute("SELECT 1") == [(1,)]
