"""The node-by-node LFP loops on the connection's scratch relations.

A clique the fused statement cannot take (a non-linear rule, mutual or
not) falls back to the semi-naive loop, whose deltas come from
``Database.scratch_relation``: a warm query's DDL is the per-query result
relations only, however many iterations the fixed point takes.  A linear
mutual clique fuses and issues no DDL at all.
"""

from __future__ import annotations

import pytest

from repro import Testbed
from repro.datalog.parser import parse_program, parse_query
from repro.runtime.topdown import evaluate_top_down
from repro.workloads.relations import full_binary_trees, tree_node

NON_LINEAR_TC = "tc(X, Y) :- parent(X, Y). tc(X, Y) :- tc(X, Z), tc(Z, Y)."
NON_LINEAR_MUTUAL = (
    "a(X, Y) :- parent(X, Y)."
    "a(X, Y) :- b(X, Z), b(Z, Y)."
    "b(X, Y) :- a(X, Y)."
)
EVEN_ODD = (
    "odd(X, Y) :- parent(X, Y)."
    "odd(X, Y) :- parent(X, Z), even(Z, Y)."
    "even(X, Y) :- parent(X, Z), odd(Z, Y)."
)
MIXED_ARITY = (
    "p(X, Y) :- parent(X, Y)."
    "p(X, Y) :- parent(X, Z), r(Z, Y)."
    "q(Y) :- p(X, Y)."
    "r(X, Y) :- q(X), parent(X, Y)."
)

CASES = {
    "non-linear tc": (NON_LINEAR_TC, "?- tc(X, Y)."),
    "non-linear mutual": (NON_LINEAR_MUTUAL, "?- a(X, Y)."),
}


def warm_query(rules, query, depth):
    """Rows, per-clique strategy and DDL count of a repeated query."""
    edges = full_binary_trees(1, depth).edges
    with Testbed() as tb:
        tb.define(rules)
        tb.define_base_relation("parent", ("TEXT", "TEXT"))
        tb.load_facts("parent", edges)
        tb.query(query)
        tb.database.statistics.reset()
        result = tb.query(query)
        by_kind = dict(tb.database.statistics.total.by_kind)
        ddl = by_kind.get("CREATE", 0) + by_kind.get("DROP", 0)
        expected = evaluate_top_down(
            parse_program(rules), {"parent": edges}, parse_query(query)
        )
        assert set(result.rows) == expected
        return result.execution, ddl, by_kind


@pytest.mark.parametrize("case", sorted(CASES))
def test_warm_fallback_ddl_does_not_grow_with_iterations(case):
    rules, query = CASES[case]
    shallow, shallow_ddl, __ = warm_query(rules, query, depth=4)
    deep, deep_ddl, __ = warm_query(rules, query, depth=8)
    for execution in (shallow, deep):
        assert all(
            how.startswith("fallback") for how in execution.strategy_by_clique.values()
        ), execution.strategy_by_clique
    assert deep.total_iterations > shallow.total_iterations
    assert deep_ddl == shallow_ddl


@pytest.mark.parametrize(
    "rules, query",
    [
        (EVEN_ODD, "?- even(X, Y)."),
        (EVEN_ODD, f"?- even('{tree_node('t', 1)}', Y)."),
        (EVEN_ODD, f"?- odd(X, '{tree_node('t', 20)}')."),
        (MIXED_ARITY, "?- q(X)."),
        (MIXED_ARITY, f"?- p('{tree_node('t', 2)}', Y)."),
        (MIXED_ARITY, f"?- r(X, '{tree_node('t', 20)}')."),
    ],
    ids=[
        "even-free", "even-source", "odd-target",
        "mixed-free", "mixed-source", "mixed-target",
    ],
)
def test_warm_linear_mutual_clique_is_one_statement(rules, query):
    execution, ddl, by_kind = warm_query(rules, query, depth=5)
    assert ddl == 0
    assert by_kind.get("WITH") == 1, by_kind
    assert set(execution.strategy_by_clique.values()) == {"lfp_cte"}
