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
    ANCESTOR_RULES_LEFT,
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
EVEN_ODD = (
    "odd(X, Y) :- parent(X, Y)."
    "odd(X, Y) :- parent(X, Z), even(Z, Y)."
    "even(X, Y) :- parent(X, Z), odd(Z, Y)."
)

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

    def test_duckdb_mutual_clique_parity(self, relation):
        # A mutually recursive clique fuses into one tagged-union CTE, free
        # and under the magic rewrite.
        def rows(backend):
            testbed = Testbed(TestbedConfig(backend=backend))
            try:
                testbed.define(EVEN_ODD)
                load_parent_relation(testbed, relation)
                out = []
                for query in ("?- even(X, Y).", "?- odd('t2', Y)."):
                    result = testbed.query(query)
                    assert set(result.execution.strategy_by_clique.values()) == {
                        "lfp_cte"
                    }
                    out.append(set(result.rows))
                return out
            finally:
                testbed.close()

        assert rows("duckdb") == rows("sqlite")

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

    @pytest.mark.parametrize(
        "rules, query, rewrite",
        [
            (ANCESTOR_RULES, "?- ancestor('t2', Y).", "factored"),
            (ANCESTOR_RULES_LEFT, "?- ancestor(X, 't9').", "factored"),
            (ANCESTOR_RULES, "?- ancestor(X, 't9').", "magic"),
            (ANCESTOR_RULES_LEFT, "?- ancestor('t2', Y).", "magic"),
        ],
        ids=["right-source", "left-target", "right-target", "left-source"],
    )
    def test_duckdb_factored_and_guard_dropped_parity(
        self, relation, rules, query, rewrite
    ):
        # A factored plan reads its goal relation's free positions only; a
        # pass-through argument leaves its recursive rule unguarded.
        def rows(backend):
            testbed = Testbed(TestbedConfig(backend=backend))
            try:
                testbed.define(rules)
                load_parent_relation(testbed, relation)
                result = testbed.query(query)
                assert result.compilation.adaptive_decision.rewrite == rewrite
                assert set(result.execution.strategy_by_clique.values()) == {"lfp_cte"}
                return set(result.rows), set(testbed.query(query, optimize=False).rows)
            finally:
                testbed.close()

        sqlite_rows, plain_rows = rows("sqlite")
        assert sqlite_rows == plain_rows
        assert rows("duckdb") == (sqlite_rows, plain_rows)

    @pytest.mark.parametrize(
        "goal", ["p0('n0', Y)", "p0(X, 'n0')"], ids=["source", "target"]
    )
    def test_duckdb_plain_sip_order_parity(self, goal):
        # A 40-rule chain bound at its root stays plain: each body is
        # joined in SIP order with CROSS JOIN, SQLite's loop nesting and
        # DuckDB's ordinary inner join.
        rules = "\n".join(
            [f"p{i}(X, Y) :- p{i + 1}(X, Z), step(Z, Y)." for i in range(39)]
            + ["p39(X, Y) :- step(X, Y)."]
        )
        steps = [(f"n{i}", f"n{(i + 1) % 8}") for i in range(8)] + [("n0", "n4")]

        def rows(backend):
            testbed = Testbed(TestbedConfig(backend=backend))
            try:
                testbed.define(rules)
                testbed.define_base_relation("step", ("TEXT", "TEXT"))
                testbed.load_facts("step", steps)
                result = testbed.query(f"?- {goal}.")
                assert not result.compilation.optimized
                assert "CROSS JOIN" in result.compilation.program.fused.with_clause
                loop = testbed.query(f"?- {goal}.", strategy=LfpStrategy.SEMINAIVE)
                assert set(result.rows) == set(loop.rows)
                return set(result.rows)
            finally:
                testbed.close()

        assert rows("duckdb") == rows("sqlite")
