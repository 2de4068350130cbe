"""ConnectionOptions: WAL/reader/writer modes, commit-join, temp confinement."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.dbms.engine import ConnectionOptions, Database
from repro.dbms.schema import RelationSchema
from repro.errors import EvaluationError


@pytest.fixture
def disk_path(tmp_path):
    return os.path.join(tmp_path, "db.sqlite")


class TestDefaults:
    def test_default_options_object(self):
        options = ConnectionOptions()
        assert options.busy_timeout_ms == 0
        assert options.check_same_thread
        assert not options.temp_derived

    def test_default_database_keeps_memory_journal(self):
        db = Database()
        try:
            assert db.execute("PRAGMA journal_mode")[0][0] == "memory"
            assert not db.temp_only
        finally:
            db.close()

    def test_default_database_enforces_same_thread(self):
        db = Database()
        errors: list[Exception] = []

        def cross_thread():
            try:
                db.execute("SELECT 1")
            except EvaluationError as error:
                # The engine wraps sqlite3.ProgrammingError like any other
                # sqlite3.Error on the embedded-SQL path.
                errors.append(error)

        try:
            thread = threading.Thread(target=cross_thread)
            thread.start()
            thread.join()
            assert len(errors) == 1
        finally:
            db.close()


class TestWriterMode:
    def test_wal_and_busy_timeout_applied(self, disk_path):
        db = Database(disk_path, options=ConnectionOptions.writer())
        try:
            assert db.execute("PRAGMA journal_mode")[0][0] == "wal"
            assert db.execute("PRAGMA busy_timeout")[0][0] == 10_000
            assert not db.temp_only
        finally:
            db.close()

    def test_cross_thread_use_allowed(self, disk_path):
        db = Database(disk_path, options=ConnectionOptions.writer())
        results: list[tuple] = []

        def cross_thread():
            results.append(db.execute("SELECT 41 + 1")[0])

        try:
            thread = threading.Thread(target=cross_thread)
            thread.start()
            thread.join()
            assert results == [(42,)]
        finally:
            db.close()


class TestReaderMode:
    def test_derived_relations_confined_to_temp(self, disk_path):
        writer = Database(disk_path, options=ConnectionOptions.writer())
        reader = Database(disk_path, options=ConnectionOptions.reader())
        try:
            assert reader.temp_only
            reader.create_relation(RelationSchema("d_scratch", ("TEXT",)))
            # Visible to the reader...
            assert reader.execute(
                "SELECT name FROM sqlite_temp_master WHERE name = 'd_scratch'"
            )
            # ...but never written into the shared file.
            assert not writer.execute(
                "SELECT name FROM sqlite_master WHERE name = 'd_scratch'"
            )
            reader.drop_relation("d_scratch")
            assert not reader.execute(
                "SELECT name FROM sqlite_temp_master WHERE name = 'd_scratch'"
            )
        finally:
            reader.close()
            writer.close()

    def test_temporary_flag_still_honoured(self, disk_path):
        reader = Database(disk_path, options=ConnectionOptions.reader())
        try:
            reader.create_relation(
                RelationSchema("explicit_temp", ("TEXT",)), temporary=True
            )
            assert reader.execute(
                "SELECT name FROM sqlite_temp_master WHERE name = 'explicit_temp'"
            )
        finally:
            reader.close()


class TestCommitJoin:
    def test_commit_inside_transaction_is_deferred(self, disk_path):
        db = Database(disk_path, options=ConnectionOptions.writer())
        observer = Database(disk_path, options=ConnectionOptions.reader())
        try:
            db.create_relation(RelationSchema("t", ("INTEGER",)))
            db.commit()
            with db.transaction():
                db.execute("INSERT INTO t VALUES (1)")
                db.commit()  # must join, not commit, the open transaction
                db.execute("INSERT INTO t VALUES (2)")
                # Nothing visible outside until the transaction closes.
                assert observer.execute("SELECT count(*) FROM t")[0][0] == 0
            assert observer.execute("SELECT count(*) FROM t")[0][0] == 2
        finally:
            observer.close()
            db.close()

    def test_rollback_discards_joined_commits(self, disk_path):
        db = Database(disk_path, options=ConnectionOptions.writer())
        try:
            db.create_relation(RelationSchema("t", ("INTEGER",)))
            db.commit()
            with pytest.raises(RuntimeError):
                with db.transaction():
                    db.execute("INSERT INTO t VALUES (1)")
                    db.commit()
                    raise RuntimeError("abort")
            assert db.execute("SELECT count(*) FROM t")[0][0] == 0
        finally:
            db.close()


class TestDeadline:
    # Tens of millions of VM steps: seconds of work when nothing stops it.
    LONG = (
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
        "WHERE x < 10000000) SELECT count(*) FROM c"
    )

    def test_aborts_a_running_statement(self):
        db = Database()
        try:
            started = time.perf_counter()
            with pytest.raises(EvaluationError, match="interrupted"):
                with db.deadline(0.005):
                    db.execute(self.LONG)
            assert time.perf_counter() - started < 1.0
        finally:
            db.close()

    def test_refuses_to_start_a_statement_after_it(self):
        db = Database()
        try:
            with db.deadline(0.001):
                time.sleep(0.005)
                with pytest.raises(EvaluationError, match="deadline passed"):
                    db.execute("SELECT 1")
                with pytest.raises(EvaluationError, match="deadline passed"):
                    db.executemany("SELECT ?", [(1,)])
            # Disarmed on exit: statements start and run to completion.
            medium = self.LONG.replace("10000000", "100000")
            assert db.execute(medium) == [(100000,)]
        finally:
            db.close()

    def test_none_is_unbounded(self):
        db = Database()
        try:
            with db.deadline(None):
                assert db.execute("SELECT 1") == [(1,)]
        finally:
            db.close()
