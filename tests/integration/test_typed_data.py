"""Integration tests: INTEGER columns, wider arities, mixed-type relations."""

import pytest

from repro import LfpStrategy
from repro.errors import TypeInferenceError


class TestIntegerColumns:
    @pytest.fixture
    def tb(self, testbed):
        testbed.define(
            """
            depends(1, 2). depends(2, 3). depends(3, 5). depends(2, 4).
            needs(X, Y) :- depends(X, Y).
            needs(X, Y) :- depends(X, Z), needs(Z, Y).
            """
        )
        return testbed

    def test_integer_types_inferred(self, tb):
        result = tb.compile_query("?- needs(1, X).")
        assert result.program.types["needs"] == ("INTEGER", "INTEGER")

    def test_integer_query_constant(self, tb):
        rows = sorted(tb.query("?- needs(1, X).").rows)
        assert rows == [(2,), (3,), (4,), (5,)]
        assert all(isinstance(v, int) for (v,) in rows)

    def test_text_constant_rejected_on_integer_column(self, tb):
        with pytest.raises(TypeInferenceError):
            tb.query("?- needs('one', X).")

    @pytest.mark.parametrize("optimize", [False, True])
    def test_rewrites_preserve_integer_semantics(self, tb, optimize):
        rows = sorted(tb.query("?- needs(2, X).", optimize=optimize).rows)
        assert rows == [(3,), (4,), (5,)]

    def test_magic_seed_typed(self, tb):
        result = tb.compile_query("?- needs(2, X).", optimize=True)
        assert result.program.types["m_needs__bf"] == ("INTEGER",)
        assert result.program.seed_rows()["m_needs__bf"] == ((2,),)


class TestMixedTypes:
    def test_mixed_columns(self, testbed):
        testbed.define(
            """
            employee(ann, 1, engineering). employee(bob, 2, sales).
            badge(X, N) :- employee(X, N, D).
            """
        )
        result = testbed.compile_query("?- badge(X, N).")
        assert result.program.types["employee"] == ("TEXT", "INTEGER", "TEXT")
        assert result.program.types["badge"] == ("TEXT", "INTEGER")
        rows = sorted(testbed.query("?- badge(X, N).").rows)
        assert rows == [("ann", 1), ("bob", 2)]

    def test_join_on_integer_column(self, testbed):
        testbed.define(
            """
            score(ann, 10). score(bob, 20).
            level(10, junior). level(20, senior).
            rank(X, L) :- score(X, N), level(N, L).
            """
        )
        rows = sorted(testbed.query("?- rank(X, L).").rows)
        assert rows == [("ann", "junior"), ("bob", "senior")]

    def test_same_value_different_types_do_not_join(self, testbed):
        # '1' (TEXT) and 1 (INTEGER) are distinct constants; a rule joining
        # them across columns must fail the type check rather than silently
        # compare across types.
        testbed.define(
            """
            tnum('1'). inum(1).
            both(X) :- tnum(X), inum(X).
            """
        )
        with pytest.raises(TypeInferenceError):
            testbed.query("?- both(X).")


class TestWiderArities:
    def test_ternary_recursion(self, testbed):
        """A recursive predicate carrying an extra label column."""
        testbed.define(
            """
            road(a, b, toll). road(b, c, free). road(c, d, toll).
            route(X, Y, K) :- road(X, Y, K).
            route(X, Y, K) :- road(X, Z, K), route(Z, Y, K).
            """
        )
        # Only same-kind chains extend: a-b(toll), c-d(toll) do not connect
        # through b-c(free).
        rows = sorted(testbed.query("?- route('a', Y, 'toll').").rows)
        assert rows == [("b",)]
        free = sorted(testbed.query("?- route(X, Y, 'free').").rows)
        assert free == [("b", "c")]

    @pytest.mark.parametrize("strategy", list(LfpStrategy))
    def test_quaternary_relation(self, testbed, strategy):
        testbed.define(
            """
            shipment(s1, ny, la, 100). shipment(s2, la, sf, 50).
            leg(F, T) :- shipment(I, F, T, W).
            conn(F, T) :- leg(F, T).
            conn(F, T) :- leg(F, M), conn(M, T).
            """
        )
        rows = sorted(
            testbed.query("?- conn('ny', X).", strategy=strategy).rows
        )
        assert rows == [("la",), ("sf",)]
