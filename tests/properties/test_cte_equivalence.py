"""Property tests: the recursive-CTE strategy computes the same answers.

The CTE path changes the statement stream radically (one ``WITH RECURSIVE``
statement instead of the whole iteration loop), so unlike the iterating
strategies it makes no iteration-count promises — but the *answer set* must be
identical to semi-naive evaluation on every workload, bound or unbound,
optimized or not, including programs generated by :mod:`repro.workloads.rulegen`
whose terminal predicate is exactly the linear ancestor shape the CTE
eligibility check accepts.

The default strategy goes one step further when every clique qualifies and
runs the whole program as one statement; :class:`TestWholeProgramFusion`
checks that statement against the same plan run node by node, against
semi-naive evaluation, and against the top-down oracle.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LfpStrategy, Testbed
from repro.datalog.parser import parse_program, parse_query
from repro.runtime import DEFAULT_STRATEGY, evaluate_top_down
from repro.workloads.relations import (
    full_binary_trees,
    lists,
    random_cyclic_graph,
    random_dag,
)
from repro.workloads.rulegen import make_module

ANCESTOR = (
    "ancestor(X, Y) :- parent(X, Y)."
    "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y)."
)

WORKLOADS = {
    "list": lambda: lists(2, 6),
    "tree": lambda: full_binary_trees(1, 5),
    "dag": lambda: random_dag(30, 5, seed=7),
    "cyclic": lambda: random_cyclic_graph(30, 5, cycle_count=3, seed=7),
}


def run_query(
    edges,
    strategy=DEFAULT_STRATEGY,
    query="?- ancestor(X, Y).",
    optimize=False,
):
    tb = Testbed()
    try:
        tb.define(ANCESTOR)
        tb.define_base_relation("parent", ("TEXT", "TEXT"))
        tb.load_facts("parent", edges)
        result = tb.query(query, strategy=strategy, optimize=optimize)
        return set(result.rows), dict(result.execution.strategy_by_clique)
    finally:
        tb.close()


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("shape", sorted(WORKLOADS))
    def test_cte_matches_seminaive(self, shape):
        edges = WORKLOADS[shape]().edges
        loop_rows, __ = run_query(edges, LfpStrategy.SEMINAIVE)
        cte_rows, chosen = run_query(edges, LfpStrategy.LFP_CTE)
        assert cte_rows == loop_rows, shape
        # The ancestor clique is linear and negation-free: the CTE path
        # must actually have been taken, not silently fallen back.
        assert chosen == {"ancestor": "lfp_cte"}, shape

    @pytest.mark.parametrize("shape", sorted(WORKLOADS))
    def test_cte_matches_seminaive_with_magic(self, shape):
        relation = WORKLOADS[shape]()
        root = sorted(relation.nodes)[0]
        query = f"?- ancestor('{root}', Y)."
        loop_rows, __ = run_query(
            relation.edges, LfpStrategy.SEMINAIVE, query, optimize=True
        )
        cte_rows, __ = run_query(
            relation.edges, LfpStrategy.LFP_CTE, query, optimize=True
        )
        assert cte_rows == loop_rows, shape

    @pytest.mark.parametrize("shape", sorted(WORKLOADS))
    def test_default_equals_explicit_strategy(self, shape):
        edges = WORKLOADS[shape]().edges
        explicit_rows, __ = run_query(edges, LfpStrategy.LFP_CTE)
        tb = Testbed()
        try:
            tb.define(ANCESTOR)
            tb.define_base_relation("parent", ("TEXT", "TEXT"))
            tb.load_facts("parent", edges)
            result = tb.query("?- ancestor(X, Y).")
        finally:
            tb.close()
        assert set(result.rows) == explicit_rows, shape
        assert result.execution.strategy_by_clique == {"ancestor": "lfp_cte"}


NODES = [f"n{i}" for i in range(6)]
random_edges = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(
        lambda e: e[0] != e[1]
    ),
    min_size=1,
    max_size=14,
    unique=True,
)


class TestRandomGraphEquivalence:
    @given(random_edges)
    @settings(max_examples=25, deadline=None)
    def test_cte_preserves_answers(self, edges):
        loop = run_query(edges, LfpStrategy.SEMINAIVE)[0]
        cte = run_query(edges, LfpStrategy.LFP_CTE)[0]
        assert cte == loop, edges

    @given(random_edges)
    @settings(max_examples=15, deadline=None)
    def test_cte_preserves_bound_magic_answers(self, edges):
        query = f"?- ancestor('{edges[0][0]}', Y)."
        loop = run_query(edges, LfpStrategy.SEMINAIVE, query, optimize=True)[0]
        cte = run_query(edges, LfpStrategy.LFP_CTE, query, optimize=True)[0]
        assert cte == loop, edges


class TestGeneratedPrograms:
    """rulegen modules with a recursive terminal qualify for the CTE path."""

    @given(
        chain_length=st.integers(min_value=1, max_value=4),
        rules_per_predicate=st.integers(min_value=1, max_value=2),
        edges=random_edges,
    )
    @settings(max_examples=20, deadline=None)
    def test_cte_matches_loop_on_generated_modules(
        self, chain_length, rules_per_predicate, edges
    ):
        module = make_module(
            "m", chain_length, rules_per_predicate, recursive=True
        )
        program = " ".join(str(rule) for rule in module.rules)
        query = f"?- {module.root_predicate}(X, Y)."
        results = {}
        for strategy in (LfpStrategy.SEMINAIVE, LfpStrategy.LFP_CTE):
            tb = Testbed()
            try:
                tb.define(program)
                tb.define_base_relation(module.base_predicate, ("TEXT", "TEXT"))
                tb.load_facts(module.base_predicate, edges)
                result = tb.query(query, strategy=strategy)
                results[strategy] = (
                    set(result.rows),
                    dict(result.execution.strategy_by_clique),
                )
            finally:
                tb.close()
        loop_rows, __ = results[LfpStrategy.SEMINAIVE]
        cte_rows, chosen = results[LfpStrategy.LFP_CTE]
        assert cte_rows == loop_rows
        # The generated terminal rule pair is the ancestor shape: linear,
        # single-predicate, no negation — the CTE must engage on it.
        terminal = module.predicates[-1]
        assert chosen.get(terminal) == "lfp_cte"


def assert_fusion_agrees(program_text, base, edges, query, optimize=False):
    """The one-statement default == the same plan node by node == semi-naive
    == oracle."""
    with Testbed() as tb:
        tb.define(program_text)
        tb.define_base_relation(base, ("TEXT", "TEXT"))
        tb.load_facts(base, edges)
        fused = tb.query(query, optimize=optimize)
        program = fused.compilation.program
        assert program.fused is not None, query
        unfused = dataclasses.replace(program, fused=None).execute(
            tb.database, tb.catalog
        )
        loop = tb.query(query, optimize=optimize, strategy=LfpStrategy.SEMINAIVE)
    oracle = evaluate_top_down(
        parse_program(program_text), {base: set(edges)}, parse_query(query)
    )
    assert set(fused.rows) == set(unfused.rows) == set(loop.rows) == oracle
    # Nothing was materialised; every clique ran as one CTE "iteration".
    execution = fused.execution
    assert execution.tuples_by_predicate == {} and execution.node_seconds == {}
    assert execution.strategy_by_clique.keys() == unfused.strategy_by_clique.keys()
    assert set(execution.strategy_by_clique.values()) <= {"lfp_cte"}
    assert set(unfused.strategy_by_clique.values()) <= {
        "fallback: plan does not fuse"
    }
    assert execution.iterations_by_clique.keys() == unfused.iterations_by_clique.keys()
    assert set(execution.iterations_by_clique.values()) <= {1}


class TestWholeProgramFusion:
    @given(
        chain_length=st.integers(min_value=1, max_value=5),
        rules_per_predicate=st.integers(min_value=1, max_value=2),
        bound=st.booleans(),
        edges=random_edges,
    )
    @settings(max_examples=20, deadline=None)
    def test_nonrecursive_chains(
        self, chain_length, rules_per_predicate, bound, edges
    ):
        module = make_module("c", chain_length, rules_per_predicate)
        first = f"'{edges[0][0]}'" if bound else "X"
        assert_fusion_agrees(
            " ".join(str(rule) for rule in module.rules),
            module.base_predicate,
            edges,
            f"?- {module.root_predicate}({first}, Y).",
        )

    @given(
        chain_length=st.integers(min_value=1, max_value=3),
        edges=random_edges,
    )
    @settings(max_examples=15, deadline=None)
    def test_negation_over_lower_strata(self, chain_length, edges):
        module = make_module("n", chain_length, recursive=True)
        base = module.base_predicate
        # Pairs joined by an edge whose reverse is not derivable: the
        # negated predicate is the recursive root, a lower stratum.
        program = " ".join(str(rule) for rule in module.rules) + (
            f" oneway(X, Y) :- {base}(X, Y), not {module.root_predicate}(Y, X)."
        )
        assert_fusion_agrees(program, base, edges, "?- oneway(X, Y).")

    @given(
        chain_length=st.integers(min_value=1, max_value=3),
        rules_per_predicate=st.integers(min_value=1, max_value=2),
        edges=random_edges,
    )
    @settings(max_examples=15, deadline=None)
    def test_magic_seeds(self, chain_length, rules_per_predicate, edges):
        module = make_module(
            "s", chain_length, rules_per_predicate, recursive=True
        )
        assert_fusion_agrees(
            " ".join(str(rule) for rule in module.rules),
            module.base_predicate,
            edges,
            f"?- {module.root_predicate}('{edges[0][0]}', Y).",
            optimize=True,
        )
