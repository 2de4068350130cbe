"""The per-form rewrite decision behind ``optimize="auto"`` (the default)."""

import pytest

import repro.km.compiler as compiler_module
from repro.datalog.parser import parse_program, parse_query
from repro.km.policy import DEFAULT_OPTIMIZE, decide_rewrite
from repro.workloads.queries import ancestor_query, make_ancestor_testbed
from repro.workloads.relations import (
    first_node_at_level,
    full_binary_trees,
    tree_node,
)

ANCESTOR = parse_program(
    "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y)."
)
CHAIN = parse_program(
    "p0(X, Y) :- p1(X, Z), e(Z, Y). p1(X, Y) :- e(X, Y)."
)


@pytest.fixture(scope="module")
def tree_testbed():
    testbed = make_ancestor_testbed(full_binary_trees(1, 8))
    yield testbed
    testbed.close()


class TestDecision:
    def test_bound_recursive_goal_rewrites(self):
        decision = decide_rewrite(ANCESTOR, parse_query("?- anc('a', X)."))
        assert decision.use_magic
        assert "recursive" in decision.reason

    def test_bound_second_argument_rewrites(self):
        assert decide_rewrite(ANCESTOR, parse_query("?- anc(X, 'a').")).use_magic

    def test_unbound_goal_does_not(self):
        decision = decide_rewrite(ANCESTOR, parse_query("?- anc(X, Y)."))
        assert not decision.use_magic
        assert "bound goal" in decision.reason

    def test_non_recursive_chain_does_not(self):
        decision = decide_rewrite(CHAIN, parse_query("?- p0('a', Y)."))
        assert not decision.use_magic
        assert "no recursive clique" in decision.reason

    def test_source_bound_right_linear_factors(self):
        decision = decide_rewrite(ANCESTOR, parse_query("?- anc('a', X)."))
        assert decision.rewrite == "factored"
        assert "free arguments through" in decision.reason

    def test_target_bound_left_linear_factors(self):
        left = parse_program(
            "anc(X, Y) :- par(X, Y). anc(X, Y) :- anc(X, Z), par(Z, Y)."
        )
        assert decide_rewrite(left, parse_query("?- anc(X, 'a').")).rewrite == "factored"

    def test_target_bound_right_linear_keeps_magic(self):
        decision = decide_rewrite(ANCESTOR, parse_query("?- anc(X, 'a')."))
        assert decision.rewrite == "magic"

    def test_same_generation_keeps_magic(self):
        sg = parse_program(
            "sg(X, Y) :- flat(X, Y). sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)."
        )
        assert decide_rewrite(sg, parse_query("?- sg('a', Y).")).rewrite == "magic"

    def test_multi_goal_query_does_not(self):
        query = parse_query("?- anc('a', X), anc(X, 'b').")
        assert not decide_rewrite(ANCESTOR, query).use_magic


class TestCompilerDefault:
    def test_auto_is_the_default(self, tree_testbed):
        assert DEFAULT_OPTIMIZE == "auto"
        result = tree_testbed.compile_query(ancestor_query(tree_node("t", 1)))
        assert result.optimized
        assert result.adaptive_decision.use_magic

    def test_root_and_leaf_take_the_same_plan(self, tree_testbed):
        # Structure, not selectivity: the crossover's two ends share a form.
        for index in (1, first_node_at_level(7)):
            result = tree_testbed.compile_query(ancestor_query(tree_node("t", index)))
            assert result.optimized

    def test_unbound_default_is_unrewritten(self, tree_testbed):
        result = tree_testbed.compile_query("?- ancestor(X, Y).")
        assert not result.optimized
        assert not result.adaptive_decision.use_magic

    def test_factored_plan_answers_with_no_recursion_over_the_answer(
        self, tree_testbed
    ):
        result = tree_testbed.compile_query(ancestor_query(tree_node("t", 2)))
        assert result.adaptive_decision.rewrite == "factored"
        assert result.program.factored
        # The only clique left is the magic set's.
        cliques = result.program.fused.cliques
        assert cliques == ("m_ancestor__bf",)

    def test_forced_magic_is_never_factored(self, tree_testbed):
        result = tree_testbed.compile_query(
            ancestor_query(tree_node("t", 2)), optimize=True
        )
        assert result.optimized and not result.program.factored

    def test_explicit_modes_skip_the_decision(self, tree_testbed):
        query = ancestor_query(tree_node("t", 1))
        forced = tree_testbed.compile_query(query, optimize=True)
        plain = tree_testbed.compile_query(query, optimize=False)
        assert forced.adaptive_decision is None and forced.optimized
        assert plain.adaptive_decision is None and not plain.optimized

    def test_answers_identical_to_the_plain_plan(self, tree_testbed):
        for index in (1, first_node_at_level(6)):
            query = ancestor_query(tree_node("t", index))
            auto = tree_testbed.query(query)
            plain = tree_testbed.query(query, optimize=False)
            assert sorted(auto.rows) == sorted(plain.rows)


def test_decision_is_made_once_per_form(monkeypatch):
    calls = []

    def counting(relevant_rules, query):
        calls.append(query)
        return decide_rewrite(relevant_rules, query)

    monkeypatch.setattr(compiler_module, "decide_rewrite", counting)
    testbed = make_ancestor_testbed(full_binary_trees(1, 5))
    try:
        for index in (1, 2, 9, 20):
            result = testbed.query(ancestor_query(tree_node("t", index)))
            assert result.compilation.optimized
        testbed.query("?- ancestor(X, Y).")
        testbed.query("?- ancestor(X, Y).")
    finally:
        testbed.close()
    assert len(calls) == 2  # one bound form, one unbound form
