"""The node-by-node LFP loops on the connection's scratch relations.

A clique the fused statement cannot take (non-linear or mutual recursion)
falls back to the semi-naive loop, whose deltas come from
``Database.scratch_relation``: a warm query's DDL is the per-query result
relations only, however many iterations the fixed point takes.  The
in-DBMS operator keeps its deltas in ``temp`` too, so not even an aborted
run leaves a table in the database file.
"""

from __future__ import annotations

import pytest

import repro.runtime.naive
from repro import LfpStrategy, Testbed
from repro.datalog.parser import parse_program, parse_query
from repro.dbms.engine import Database
from repro.errors import EvaluationError
from repro.runtime.topdown import evaluate_top_down
from repro.workloads.queries import ANCESTOR_RULES, load_parent_relation
from repro.workloads.relations import full_binary_trees

NON_LINEAR_TC = "tc(X, Y) :- parent(X, Y). tc(X, Y) :- tc(X, Z), tc(Z, Y)."
EVEN_ODD = (
    "odd(X, Y) :- parent(X, Y)."
    "odd(X, Y) :- parent(X, Z), even(Z, Y)."
    "even(X, Y) :- parent(X, Z), odd(Z, Y)."
)

CASES = {
    "non-linear tc": (NON_LINEAR_TC, "?- tc(X, Y)."),
    "mutual even/odd": (EVEN_ODD, "?- even(X, Y)."),
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
        by_kind = tb.database.statistics.total.by_kind
        ddl = by_kind.get("CREATE", 0) + by_kind.get("DROP", 0)
        expected = evaluate_top_down(
            parse_program(rules), {"parent": edges}, parse_query(query)
        )
        assert set(result.rows) == expected
        return result.execution, ddl


@pytest.mark.parametrize("case", sorted(CASES))
def test_warm_fallback_ddl_does_not_grow_with_iterations(case):
    rules, query = CASES[case]
    shallow, shallow_ddl = warm_query(rules, query, depth=4)
    deep, deep_ddl = warm_query(rules, query, depth=8)
    for execution in (shallow, deep):
        assert all(
            how.startswith("fallback") for how in execution.strategy_by_clique.values()
        ), execution.strategy_by_clique
    assert deep.total_iterations > shallow.total_iterations
    assert deep_ddl == shallow_ddl


def test_aborted_lfp_operator_leaves_no_table_in_the_file(tmp_path, monkeypatch):
    path = str(tmp_path / "dkb.sqlite")
    with Testbed(path) as tb:
        tb.define(ANCESTOR_RULES)
        load_parent_relation(tb, full_binary_trees(1, 5))
        tb.database.commit()
        monkeypatch.setattr(repro.runtime.naive, "MAX_ITERATIONS", 2)
        with pytest.raises(EvaluationError):
            tb.query("?- ancestor(X, Y).", strategy=LfpStrategy.LFP_OPERATOR)
        tb.database.commit()
    with Database(path) as fresh:
        leaked = [
            name for name in fresh.table_names() if name.startswith("lfp")
        ]
    assert leaked == []
