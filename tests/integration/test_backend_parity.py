"""Cross-backend and cross-strategy parity on the fig-12 workloads.

Every (backend, strategy) pair must return the identical answer rows for
the bound ancestor queries over the full binary tree — the workload behind
figures 11–14.  The DuckDB half of the matrix runs only when the optional
driver is installed (the CI parity job installs it; local runs without it
exercise the SQLite half and the CTE-vs-loop comparisons).
"""

from __future__ import annotations

import pytest

from repro import LfpStrategy, Testbed, TestbedConfig
from repro.dbms.backends.duck import duckdb_available
from repro.workloads.queries import (
    ANCESTOR_RULES,
    ancestor_query,
    expected_ancestor_answers,
    load_parent_relation,
)
from repro.workloads.relations import (
    first_node_at_level,
    full_binary_trees,
    tree_node,
)

DEPTH = 6
LEVELS = (1, 2, 4)

requires_duckdb = pytest.mark.skipif(
    not duckdb_available(), reason="duckdb not installed"
)


@pytest.fixture(scope="module")
def relation():
    return full_binary_trees(1, DEPTH)


def answers(relation, backend, strategy, optimize=False):
    """Per-level answer sets for the fig-12 query mix on one backend."""
    testbed = Testbed(TestbedConfig(backend=backend))
    try:
        testbed.define(ANCESTOR_RULES)
        load_parent_relation(testbed, relation)
        out = {}
        for level in LEVELS:
            root = tree_node("t", first_node_at_level(level))
            result = testbed.query(
                ancestor_query(root), strategy=strategy, optimize=optimize
            )
            out[level] = set(result.rows)
        return out
    finally:
        testbed.close()


class TestCteVsLoopParity:
    @pytest.mark.parametrize("optimize", [False, True])
    def test_cte_rows_match_loop_rows(self, relation, optimize):
        loop = answers(relation, "sqlite", LfpStrategy.SEMINAIVE, optimize)
        cte = answers(relation, "sqlite", LfpStrategy.LFP_CTE, optimize)
        assert cte == loop

    def test_rows_match_ground_truth(self, relation):
        cte = answers(relation, "sqlite", LfpStrategy.LFP_CTE)
        for level in LEVELS:
            root = tree_node("t", first_node_at_level(level))
            assert cte[level] == expected_ancestor_answers(relation, root)


@requires_duckdb
class TestEngineParity:
    @pytest.mark.parametrize(
        "strategy",
        [LfpStrategy.NAIVE, LfpStrategy.SEMINAIVE, LfpStrategy.LFP_CTE],
    )
    def test_duckdb_rows_match_sqlite(self, relation, strategy):
        sqlite_rows = answers(relation, "sqlite", strategy)
        duckdb_rows = answers(relation, "duckdb", strategy)
        assert duckdb_rows == sqlite_rows

    def test_lfp_operator_falls_back_cleanly_on_duckdb(self, relation):
        # The in-DBMS LFP operator is SQLite dialect; on DuckDB it must
        # silently compute the same fixpoint via the portable loop.
        sqlite_rows = answers(relation, "sqlite", LfpStrategy.LFP_OPERATOR)
        duckdb_rows = answers(relation, "duckdb", LfpStrategy.LFP_OPERATOR)
        assert duckdb_rows == sqlite_rows

    def test_duckdb_fused_magic_parity(self, relation):
        # The default one-statement plan with the magic seed as CTE arms.
        sqlite_rows = answers(relation, "sqlite", LfpStrategy.LFP_CTE, optimize=True)
        duckdb_rows = answers(relation, "duckdb", LfpStrategy.LFP_CTE, optimize=True)
        assert duckdb_rows == sqlite_rows

    def test_duckdb_default_rewrite_parity(self, relation):
        # The default per-form rewrite, source- and target-bound: its magic
        # guards are IN semi-joins inside the one statement.
        def rows(backend):
            testbed = Testbed(TestbedConfig(backend=backend))
            try:
                testbed.define(ANCESTOR_RULES)
                load_parent_relation(testbed, relation)
                out = []
                for level in LEVELS:
                    node = tree_node("t", first_node_at_level(level))
                    for text in (ancestor_query(node), f"?- ancestor(X, '{node}')."):
                        result = testbed.query(text)
                        assert result.compilation.optimized
                        out.append(set(result.rows))
                return out
            finally:
                testbed.close()

        assert rows("duckdb") == rows("sqlite")

    def test_duckdb_magic_parity(self, relation):
        sqlite_rows = answers(
            relation, "sqlite", LfpStrategy.SEMINAIVE, optimize=True
        )
        duckdb_rows = answers(
            relation, "duckdb", LfpStrategy.SEMINAIVE, optimize=True
        )
        assert duckdb_rows == sqlite_rows
