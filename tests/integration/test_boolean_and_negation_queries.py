"""Regression tests: fully ground (boolean) queries and magic with negation."""

import pytest

from repro import LfpStrategy, Testbed


@pytest.fixture
def tb():
    testbed = Testbed()
    testbed.define(
        """
        edge(a, b). edge(b, c). node(a). node(b). node(c). node(d).
        reach(X) :- edge('a', X).
        reach(X) :- reach(Y), edge(Y, X).
        interesting(X) :- node(X), not reach(X).
        """
    )
    yield testbed
    testbed.close()


class TestBooleanQueries:
    def test_true_ground_query(self, tb):
        assert tb.query("?- reach('c').").rows == [()]

    def test_false_ground_query(self, tb):
        assert tb.query("?- reach('d').").rows == []

    def test_ground_query_over_base_relation(self, tb):
        assert tb.query("?- edge('a', 'b').").rows == [()]
        assert tb.query("?- edge('b', 'a').").rows == []

    def test_ground_conjunction(self, tb):
        assert tb.query("?- edge('a', 'b'), edge('b', 'c').").rows == [()]
        assert tb.query("?- edge('a', 'b'), edge('c', 'd').").rows == []

    @pytest.mark.parametrize("optimize", [False, True, "supplementary"])
    def test_ground_query_all_rewrites(self, tb, optimize):
        assert tb.query("?- reach('c').", optimize=optimize).rows == [()]

    @pytest.mark.parametrize("strategy", list(LfpStrategy))
    def test_ground_query_all_strategies(self, tb, strategy):
        assert tb.query("?- reach('c').", strategy=strategy).rows == [()]


class TestMagicWithNegation:
    """Magic rewriting must carry the definitions of negated derived
    predicates along (they are referenced under their original names)."""

    @pytest.mark.parametrize("optimize", [True, "supplementary"])
    def test_negated_derived_predicate_supported(self, tb, optimize):
        plain = sorted(tb.query("?- interesting('d').").rows)
        rewritten = sorted(tb.query("?- interesting('d').", optimize=optimize).rows)
        assert plain == rewritten == [()]

    @pytest.mark.parametrize("optimize", [True, "supplementary"])
    def test_negative_answer_preserved(self, tb, optimize):
        assert tb.query("?- interesting('b').", optimize=optimize).rows == []

    def test_negated_support_evaluated_in_full(self, tb):
        # The negated predicate (reach) is evaluated unrestricted — its
        # relation must be materialised by the optimized program too.
        result = tb.query(
            "?- interesting('d').", optimize=True, strategy=LfpStrategy.SEMINAIVE
        )
        assert "reach" in result.execution.tuples_by_predicate
        assert result.execution.tuples_by_predicate["reach"] == 2

    def test_recursion_through_double_negation_layers(self):
        with Testbed() as tb:
            tb.define(
                """
                e(a, b). e(b, c). n(a). n(b). n(c).
                r(X) :- e('a', X).
                r(X) :- r(Y), e(Y, X).
                nr(X) :- n(X), not r(X).
                odd(X) :- n(X), not nr(X).
                """
            )
            plain = sorted(tb.query("?- odd('b').").rows)
            magic = sorted(tb.query("?- odd('b').", optimize=True).rows)
            assert plain == magic == [()]
