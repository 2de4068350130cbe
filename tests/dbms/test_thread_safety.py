"""Thread-safety regressions: the statement cache and Statistics."""

from __future__ import annotations

import os
import threading

from repro.dbms.engine import ConnectionOptions, Database

THREADS = 16


def test_statement_cache_counters_consistent_under_concurrency(tmp_path):
    path = os.path.join(tmp_path, "cache.sqlite")
    db = Database(
        path, statement_cache_size=8, options=ConnectionOptions.writer()
    )
    db.execute("CREATE TABLE t (a INTEGER)")
    db.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(20)])
    db.commit()

    per_thread = 40
    baseline_lookups = db.statement_cache.hits + db.statement_cache.misses
    start = threading.Barrier(THREADS)
    errors: list[Exception] = []

    def hammer(seed: int):
        start.wait()
        try:
            for i in range(per_thread):
                # A mix of repeated statements (hits) and per-thread unique
                # text (misses + evictions churning the tiny LRU).
                if i % 2:
                    db.execute("SELECT count(*) FROM t")
                else:
                    db.execute(f"SELECT a + {seed} FROM t WHERE a < 3")
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    try:
        threads = [
            threading.Thread(target=hammer, args=(seed,))
            for seed in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        cache = db.statement_cache
        assert cache is not None
        total = THREADS * per_thread
        # Every execute consulted the cache exactly once: the counters must
        # balance even under contention (the regression this test guards).
        assert cache.hits + cache.misses == baseline_lookups + total
        assert cache.hits > 0 and cache.misses > 0
        assert len(cache) <= cache.capacity

        # Statistics saw the same statements with the same cache outcomes.
        merged = db.statistics.total
        assert merged.cache_hits == cache.hits
        assert merged.cache_misses == cache.misses
        # The setup statements were recorded too; the hammered ones at least.
        assert merged.statements >= total
    finally:
        db.close()
