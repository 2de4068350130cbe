"""Per-request budgets: a deadline on the reader's own connection, no thread.

A budget must stop both a statement that runs past it and a statement that
would *start* after it — the latter is what holds the budget across
pure-Python phases (compilation) between short statements.
"""

from __future__ import annotations

import time

import pytest

from repro.datalog.parser import parse_program, parse_query
from repro.runtime.topdown import evaluate_top_down
from repro.server import DkbClient, ServerError, SessionPool
from repro.server.pool import RequestTimeout
from repro.server.service import DkbServer, ServerConfig
from repro.workloads.relations import full_binary_trees

ANCESTOR_ALL = "?- ancestor(X, Y)."
# ~100k rows of recursion: many thousands of VM steps, far past any 5 ms
# budget, but only a few milliseconds when nothing is armed.
COUNT_RECURSIVELY = (
    "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
    "WHERE x < 100000) SELECT count(*) FROM c"
)


def test_service_budget_times_out_and_the_connection_recovers(deep_dkb_path):
    config = ServerConfig(
        path=deep_dkb_path, readers=1, cache_size=8, request_timeout=0.005
    )
    with DkbServer(config) as server:
        # Compile the bound parent form ahead (no budget on the pool's own
        # reads), so the follow-up below evaluates a real miss well inside
        # 5 ms instead of racing a cold compile.
        server.pool.query("?- parent('t2', Y).")
        host, port = server.address
        with DkbClient(host, port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.query(ANCESTOR_ALL)
            assert excinfo.value.code == "TIMEOUT"
            reply = client.query("?- parent('t1', Y).")
    assert reply["cached"] is False
    assert {tuple(row) for row in reply["rows"]} == {("t2",), ("t3",)}


def test_budget_spent_between_statements_still_times_out(pool, monkeypatch):
    with pool.reader() as session:
        testbed = session.testbed
        compile_query = testbed.compile_query

        def slow_compile(*args, **kwargs):
            time.sleep(0.05)  # pure Python: no statement runs meanwhile
            return compile_query(*args, **kwargs)

        monkeypatch.setattr(testbed, "compile_query", slow_compile)
        started = time.perf_counter()
        with pytest.raises(RequestTimeout):
            # Every statement left after the sleep is short; only the check
            # at statement start sees that the budget is gone.
            session.query("?- parent('john', Y).", timeout=0.01)
        assert time.perf_counter() - started < 1.0


def test_timed_out_session_leaves_nothing_armed(deep_dkb_path):
    with SessionPool(deep_dkb_path, readers=1) as pool:
        with pool.reader() as session:
            with pytest.raises(RequestTimeout):
                session.query(ANCESTOR_ALL, timeout=0.005)
            database = session.testbed.database
            time.sleep(0.01)
            # A statement-start check left armed would refuse this; a
            # progress handler left armed would abort it mid-run.
            assert database.execute(COUNT_RECURSIVELY) == [(100000,)]
            # The uncounted path skips the start check: only a stale
            # progress handler could stop it.
            assert database.observe(COUNT_RECURSIVELY) == [(100000,)]
            assert len(session.query(ANCESTOR_ALL).rows) > 10000


def test_deadline_abort_mid_loop_then_the_session_answers(tmp_path, monkeypatch):
    # Non-linear recursion cannot fuse, so the reader runs the semi-naive
    # loop on its scratch relations.  The abort rolls the reader's
    # transaction back, taking the scratch relations it created with it;
    # the next query on the same session must re-create them.
    rules = "tc(X, Y) :- parent(X, Y). tc(X, Y) :- tc(X, Z), tc(Z, Y)."
    edges = full_binary_trees(1, 6).edges
    query = "?- tc(X, Y)."
    path = str(tmp_path / "tc.sqlite")
    with SessionPool(path, readers=1) as pool:
        pool.define(rules)
        pool.load_facts("parent", edges)
        with pool.reader() as session:
            database = session.testbed.database
            allocate = database.scratch_relation
            loop_calls = []

            def slow_third_iteration(name, types):
                if name.startswith("seminaive_"):
                    loop_calls.append(name)
                    if len(loop_calls) == 3:
                        time.sleep(0.6)  # the budget runs out mid-loop
                return allocate(name, types)

            monkeypatch.setattr(database, "scratch_relation", slow_third_iteration)
            with pytest.raises(RequestTimeout):
                session.query(query, timeout=0.5)
            assert len(loop_calls) == 3
            # The rollback took the loop's scratch relations with it.
            assert not any(database.table_exists(name) for name in loop_calls)

            result = session.query(query)
    assert not result.cached
    expected = evaluate_top_down(
        parse_program(rules), {"parent": edges}, parse_query(query)
    )
    assert set(result.rows) == expected
