"""The session pool: versioned writes, snapshot reads, caching, timeouts."""

from __future__ import annotations

import os

import pytest

from repro.errors import TestbedError
from repro.server import ServerBusy, SessionPool, VersionedResultCache
from repro.server.pool import (
    DKB_VERSION_TABLE,
    RequestTimeout,
    read_version,
)

ANCESTOR_ALL = "?- ancestor(X, Y)."
ANCESTOR_JOHN = "?- ancestor('john', Y)."


def test_rejects_in_memory_databases(tmp_path):
    with pytest.raises(ValueError, match=":memory:"):
        SessionPool(":memory:")


def test_version_table_persisted_in_catalog(pool):
    rows = pool.writer.database.execute(
        f"SELECT version FROM {DKB_VERSION_TABLE} WHERE id = 1"
    )
    assert rows and rows[0][0] == pool.version()


def test_every_write_bumps_the_version(pool):
    before = pool.version()
    pool.load_facts("parent", [("ann", "zed")])
    assert pool.version() == before + 1
    pool.delete_facts("parent", [("ann", "zed")])
    assert pool.version() == before + 2
    pool.define("sibling(X, Y) :- parent(P, X), parent(P, Y).")
    assert pool.version() == before + 3
    pool.materialize("ancestor")
    assert pool.version() == before + 4


def test_failed_write_rolls_back_change_and_version(pool):
    before_version = pool.version()
    before_count = pool.writer.catalog.fact_count("parent")
    with pytest.raises(TestbedError):
        with pool.write() as testbed:
            testbed.load_facts("parent", [("ghost", "row")])
            testbed.delete_facts("no_such_relation", [("x",)])
    assert pool.version() == before_version
    assert pool.writer.catalog.fact_count("parent") == before_count
    # The ghost row from the failed transaction is invisible to readers.
    result = pool.query("?- parent('ghost', Y).")
    assert result.rows == ()


def test_read_sees_consistent_version(pool):
    result = pool.query(ANCESTOR_JOHN)
    assert result.version == pool.version()
    assert ("mary",) in result.rows and ("ann",) in result.rows
    assert not result.cached


def test_cache_hit_and_invalidation(pool):
    cold = pool.query(ANCESTOR_JOHN)
    warm = pool.query(ANCESTOR_JOHN)
    assert not cold.cached and warm.cached
    assert warm.rows == cold.rows and warm.version == cold.version
    # A write bumps the version: the next read recomputes.
    pool.load_facts("parent", [("ann", "newleaf")])
    after = pool.query(ANCESTOR_JOHN)
    assert not after.cached
    assert after.version == cold.version + 1
    assert ("newleaf",) in after.rows


def test_bindings_share_cache_entry_with_inline_constants(pool):
    cold = pool.query(ANCESTOR_ALL, bindings={"X": "john"})
    warm = pool.query(ANCESTOR_JOHN)
    assert not cold.cached and warm.cached


def test_use_cache_false_bypasses_the_cache(pool):
    pool.query(ANCESTOR_JOHN)
    again = pool.query(ANCESTOR_JOHN, use_cache=False)
    assert not again.cached


def test_reader_checkout_sheds_when_exhausted(dkb_path):
    with SessionPool(dkb_path, readers=1, max_waiters=0) as pool:
        with pool.reader():
            with pytest.raises(ServerBusy):
                with pool.reader():
                    pass
        # Slot returned: checkout works again.
        with pool.reader() as session:
            assert session.query(ANCESTOR_JOHN).rows


def test_writer_lock_times_out(pool):
    with pool.write():
        with pytest.raises(RequestTimeout):
            with pool.write(timeout=0.05):
                pass


def test_query_timeout_interrupts_evaluation(tmp_path):
    from repro.workloads.queries import ANCESTOR_RULES
    from repro.workloads.relations import full_binary_trees

    path = os.path.join(tmp_path, "deep.sqlite")
    with SessionPool(path, readers=1) as pool:
        pool.define(ANCESTOR_RULES)
        pool.load_facts("parent", full_binary_trees(1, 11).edges)
        with pool.reader() as session:
            with pytest.raises(RequestTimeout):
                # The full closure takes far longer than a 5 ms budget; the
                # timer interrupts the reader's connection mid-evaluation.
                session.query(ANCESTOR_ALL, timeout=0.005)
        # The interrupted session stays usable for the next request.
        with pool.reader() as session:
            assert session.query("?- parent('t1', Y).").rows


def test_readers_confine_derived_relations_to_temp(pool):
    pool.query(ANCESTOR_JOHN, use_cache=False)
    # The shared file must hold no derived (d_*) relations from the read.
    names = [
        row[0]
        for row in pool.writer.database.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    ]
    assert not any(name.startswith("d_") for name in names), names


def test_defined_rules_visible_to_all_sessions(pool):
    pool.define("grandparent(X, Y) :- parent(X, Z), parent(Z, Y).")
    for _ in range(2):  # exercise both pooled reader sessions
        result = pool.query("?- grandparent('john', Y).", use_cache=False)
        assert ("sue",) in result.rows and ("tom",) in result.rows


def test_no_reader_serves_a_plan_older_than_the_rule_base(pool):
    """Readers cache compiled plans; the rules change on the writer handle."""
    leaf = "?- ancestor('ann', Y)."

    def read_on_every_session():
        # pool.query always checks out the same idle session; hold both.
        with pool.reader() as first, pool.reader() as second:
            assert first is not second
            return [
                (session, session.query(leaf, use_cache=False))
                for session in (first, second)
            ]

    for session, result in read_on_every_session():
        assert result.rows == ()
        assert len(session.testbed.precompiled) == 1
    pool.define("ancestor(X, Y) :- parent(Y, X).")
    for session, result in read_on_every_session():
        assert result.rows == (("sue",),)
        assert result.version == pool.version()
    # ...and the recompiled plan is then reused until the next rule change.
    for session, __ in read_on_every_session():
        assert session.testbed.precompiled.statistics.hits >= 1


def test_materialized_view_serves_readers(pool):
    pool.materialize("ancestor")
    result = pool.query(ANCESTOR_JOHN, use_cache=False)
    assert result.answered_from_view
    assert ("ann",) in result.rows


def test_snapshot_shape(pool):
    snapshot = pool.snapshot()
    assert snapshot["readers"] == 2
    assert snapshot["version"] == pool.version()
    assert "admission" in snapshot and "cache" in snapshot


def test_wal_mode_on_disk(pool, dkb_path):
    mode = pool.writer.database.execute("PRAGMA journal_mode")[0][0]
    assert mode == "wal"
    assert os.path.exists(dkb_path)


def test_pool_without_cache(dkb_path):
    with SessionPool(dkb_path, readers=1, cache=None) as pool:
        first = pool.query(ANCESTOR_JOHN)
        second = pool.query(ANCESTOR_JOHN)
        assert not first.cached and not second.cached


def test_load_facts_creates_relation_on_first_use(dkb_path):
    with SessionPool(dkb_path, readers=1, cache=VersionedResultCache(8)) as pool:
        pool.load_facts("edge", [(1, 2), (2, 3)])
        result = pool.query("?- edge(X, Y).")
        assert set(result.rows) == {(1, 2), (2, 3)}


def test_read_version_requires_initialised_dkb(tmp_path, pool):
    from repro.dbms.engine import Database
    from repro.errors import EvaluationError

    db = Database(os.path.join(tmp_path, "bare.sqlite"))
    try:
        with pytest.raises(EvaluationError):
            read_version(db)
    finally:
        db.close()


def test_default_read_creates_no_temp_table(pool):
    with pool.reader() as session:
        database = session.testbed.database
        database.statistics.reset()
        result = session.query(ANCESTOR_JOHN, use_cache=False)
        assert ("mary",) in result.rows
        kinds = database.statistics.total.by_kind
        assert not {"CREATE", "DROP", "INSERT", "DELETE"} & set(kinds)
        with database.transaction():
            (count,) = database.execute(
                "SELECT COUNT(*) FROM sqlite_temp_master"
            )[0]
        assert count == 0
