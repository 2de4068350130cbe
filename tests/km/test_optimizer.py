"""Unit tests for the Optimizer wrapper."""

import pytest

from repro.datalog.magic import QuerySeed
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.typecheck import TypeEnvironment
from repro.km.optimizer import optimization_applies, optimize
from repro.errors import OptimizationError

ANCESTOR = parse_program(
    "ancestor(X, Y) :- parent(X, Y)."
    "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y)."
)
TYPES = TypeEnvironment(
    {"ancestor": ("TEXT", "TEXT"), "parent": ("TEXT", "TEXT")}
)


class TestApplicability:
    def test_bound_single_goal_applies(self):
        assert optimization_applies(
            parse_query("?- ancestor('john', X)."), {"ancestor"}
        )

    def test_unbound_goal_does_not_apply(self):
        assert not optimization_applies(
            parse_query("?- ancestor(X, Y)."), {"ancestor"}
        )

    def test_multi_goal_does_not_apply(self):
        assert not optimization_applies(
            parse_query("?- ancestor('a', X), ancestor(X, Y)."), {"ancestor"}
        )

    def test_base_goal_does_not_apply(self):
        assert not optimization_applies(
            parse_query("?- parent('a', X)."), {"ancestor"}
        )


class TestOptimize:
    def test_goal_rewrite_and_seed(self):
        query = parse_query("?- ancestor('john', X).")
        result = optimize(ANCESTOR, query, TYPES)
        assert result.goal_rewrites == {"ancestor": "ancestor__bf"}
        # The seed is recorded as goal positions; its row comes from a query.
        assert result.seed_facts == {}
        assert result.query_seed == QuerySeed("m_ancestor__bf", (0,))
        assert result.query_seed.row(query.goals[0]) == ("john",)

    @pytest.mark.parametrize("method", ["magic", "supplementary"])
    def test_rewrite_holds_no_query_constant(self, method):
        """Two queries of one form rewrite to the same rules and seed record."""
        first = optimize(ANCESTOR, parse_query("?- ancestor('john', X)."), TYPES, method)
        second = optimize(ANCESTOR, parse_query("?- ancestor('mary', X)."), TYPES, method)
        assert list(first.rules) == list(second.rules)
        assert first.seed_facts == second.seed_facts
        assert first.query_seed == second.query_seed

    def test_rule_fact_equal_to_a_seed_row_is_kept(self):
        """A rule's own magic fact stays a seed fact even when it equals this
        query's seed row: the next query of the form may bind another value."""
        program = parse_program(
            "p(X, Y) :- t(X, Y), w(Z)."
            "w(Z) :- p(Z, 'a')."
        )
        types = TypeEnvironment(
            {"p": ("TEXT", "TEXT"), "t": ("TEXT", "TEXT"), "w": ("TEXT",)}
        )
        result = optimize(program, parse_query("?- p(X, 'a')."), types)
        assert result.seed_facts == {"m_p__fb": (("a",),)}
        assert result.query_seed == QuerySeed("m_p__fb", (1,))

    def test_rewritten_rules_exclude_seed(self):
        result = optimize(ANCESTOR, parse_query("?- ancestor('john', X)."), TYPES)
        heads = {c.head_predicate for c in result.rules}
        assert heads == {"ancestor__bf", "m_ancestor__bf"}
        assert all(c.is_rule for c in result.rules)

    def test_new_types(self):
        result = optimize(ANCESTOR, parse_query("?- ancestor('john', X)."), TYPES)
        assert result.new_types["ancestor__bf"] == ("TEXT", "TEXT")
        assert result.new_types["m_ancestor__bf"] == ("TEXT",)

    def test_magic_types_follow_bound_positions(self):
        program = parse_program("p(X, Y) :- e(X, Y).")
        types = TypeEnvironment({"p": ("TEXT", "INTEGER"), "e": ("TEXT", "INTEGER")})
        result = optimize(program, parse_query("?- p(X, 7)."), types)
        assert result.new_types["m_p__fb"] == ("INTEGER",)

    def test_inapplicable_raises(self):
        with pytest.raises(OptimizationError):
            optimize(ANCESTOR, parse_query("?- ancestor(X, Y)."), TYPES)

    def test_ground_magic_fact_becomes_seed(self):
        """A constant-bound callee in an all-free rule yields a magic FACT,
        which must be routed into seed_facts, not left as a phantom rule
        (regression: found by the random-program property test)."""
        from repro.datalog.typecheck import TypeEnvironment

        program = parse_program(
            "p(X, Y) :- e(X, Y)."
            "p(X, Y) :- e(X, Z), p(Z, Y)."
            "top(X, Y) :- q(X, W), p(W, Y)."
            # q called all-free from nowhere... make q's rule call p with a
            # constant binding while q itself is entered free:
            "q(X, Y) :- p(X, 'k'), e(X, Y)."
        )
        types = TypeEnvironment(
            {
                "p": ("TEXT", "TEXT"),
                "q": ("TEXT", "TEXT"),
                "top": ("TEXT", "TEXT"),
                "e": ("TEXT", "TEXT"),
            }
        )
        result = optimize(
            program, parse_query("?- top('a', Y)."), types
        )
        # Whatever the exact adornments, no clause of the rewritten program
        # may be a fact, and the rewritten program must be executable.
        assert all(c.is_rule for c in result.rules)

    def test_ground_magic_fact_end_to_end(self):
        from repro import Testbed

        with Testbed() as tb:
            tb.define(
                """
                e(a, b). e(b, k).
                p(X, Y) :- e(X, Y).
                p(X, Y) :- e(X, Z), p(Z, Y).
                q(X, Y) :- p(X, 'k'), e(X, Y).
                top(X, Y) :- q(X, W), p(W, Y).
                """
            )
            plain = sorted(tb.query("?- top('a', Y).").rows)
            magic = sorted(tb.query("?- top('a', Y).", optimize=True).rows)
            assert plain == magic
