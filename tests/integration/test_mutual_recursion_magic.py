"""Integration tests: magic sets over mutually recursive cliques.

The paper's Figure 1 has mutually recursive p/q; the adornment worklist and
magic rewriting must follow bindings through both predicates of the clique.
"""

import pytest

from repro import LfpStrategy, Testbed


@pytest.fixture
def mutual_tb():
    """Even/odd path lengths: a two-predicate mutually recursive clique."""
    testbed = Testbed()
    testbed.define(
        """
        edge(a, b). edge(b, c). edge(c, d). edge(d, e).
        odd(X, Y) :- edge(X, Y).
        odd(X, Y) :- edge(X, Z), even(Z, Y).
        even(X, Y) :- edge(X, Z), odd(Z, Y).
        """
    )
    yield testbed
    testbed.close()


class TestMutualRecursion:
    EXPECTED_ODD = [("b",), ("d",)]
    EXPECTED_EVEN = [("c",), ("e",)]

    @pytest.mark.parametrize("optimize", [False, True, "auto"])
    def test_odd_paths(self, mutual_tb, optimize):
        rows = sorted(mutual_tb.query("?- odd('a', Y).", optimize=optimize).rows)
        assert rows == self.EXPECTED_ODD

    @pytest.mark.parametrize("optimize", [False, True])
    def test_even_paths(self, mutual_tb, optimize):
        rows = sorted(mutual_tb.query("?- even('a', Y).", optimize=optimize).rows)
        assert rows == self.EXPECTED_EVEN

    def test_magic_restricts_the_clique(self, mutual_tb):
        """With the query bound at 'a', magic must not derive tuples rooted
        elsewhere (e.g. odd(c, d) is irrelevant to odd('a', Y))."""
        # The loop materialises each relation, so its sizes are observable.
        loop = LfpStrategy.SEMINAIVE
        plain = mutual_tb.query("?- odd('a', Y).", optimize=False, strategy=loop)
        magic = mutual_tb.query("?- odd('a', Y).", optimize=True, strategy=loop)
        plain_tuples = sum(
            n
            for p, n in plain.execution.tuples_by_predicate.items()
            if p in ("odd", "even")
        )
        magic_tuples = sum(
            n
            for p, n in magic.execution.tuples_by_predicate.items()
            if p.startswith(("odd", "even"))
        )
        # Plain: every odd-length (6) and even-length (4) pair of the chain.
        assert plain_tuples == 10
        # Magic: only the pairs rooted at 'a' (3 odd + 1 even).
        assert magic_tuples == 4

    def test_adorned_clique_stays_mutually_recursive(self, mutual_tb):
        result = mutual_tb.compile_query("?- odd('a', Y).", optimize=True)
        clique_nodes = [
            node
            for node in result.program.order
            if len(node.predicates) > 1
        ]
        assert any(
            {"odd__bf", "even__bf"} <= set(node.predicates)
            for node in clique_nodes
        ), [tuple(n.predicates) for n in result.program.order]

    @pytest.mark.parametrize("strategy", list(LfpStrategy))
    def test_strategies_on_optimized_mutual_clique(self, mutual_tb, strategy):
        rows = sorted(
            mutual_tb.query(
                "?- odd('a', Y).", optimize=True, strategy=strategy
            ).rows
        )
        assert rows == self.EXPECTED_ODD


class TestThreeWayClique:
    def test_three_predicate_cycle(self):
        """Paths counted modulo 3 — a three-predicate recursive clique."""
        with Testbed() as tb:
            tb.define(
                """
                edge(a, b). edge(b, c). edge(c, d). edge(d, e). edge(e, f).
                r1(X, Y) :- edge(X, Y).
                r1(X, Y) :- edge(X, Z), r3(Z, Y).
                r2(X, Y) :- edge(X, Z), r1(Z, Y).
                r3(X, Y) :- edge(X, Z), r2(Z, Y).
                """
            )
            for optimize in (False, True):
                mod1 = sorted(tb.query("?- r1('a', Y).", optimize=optimize).rows)
                assert mod1 == [("b",), ("e",)]  # path lengths 1 and 4
                mod0 = sorted(tb.query("?- r3('a', Y).", optimize=optimize).rows)
                assert mod0 == [("d",)]  # path length 3
