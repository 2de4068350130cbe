"""Failure-injection tests: errors must surface cleanly and leave no debris."""

import pytest

from repro import Testbed
from repro.errors import (
    EvaluationError,
    ParseError,
    SemanticError,
    TestbedError,
    UndefinedPredicateError,
)


@pytest.fixture
def tb():
    testbed = Testbed()
    testbed.define(
        """
        parent(a, b). parent(b, c).
        anc(X, Y) :- parent(X, Y).
        anc(X, Y) :- parent(X, Z), anc(Z, Y).
        """
    )
    yield testbed
    testbed.close()


class TestErrorSurfacing:
    def test_parse_error_carries_context(self, tb):
        with pytest.raises(ParseError) as error:
            tb.define("anc(X :- parent(X, Y).")
        assert error.value.position is not None

    def test_all_errors_share_the_base_class(self, tb):
        with pytest.raises(TestbedError):
            tb.query("?- missing(X).")
        with pytest.raises(TestbedError):
            tb.define("p(X ::.")

    def test_failed_query_leaves_session_usable(self, tb):
        with pytest.raises(UndefinedPredicateError):
            tb.query("?- nothing(X).")
        assert sorted(tb.query("?- anc('a', X).").rows) == [("b",), ("c",)]


class TestNoDebrisAfterFailures:
    def test_dropped_base_table_mid_execution(self, tb):
        """A base relation vanishing between compile and execute fails
        cleanly and the context cleanup still drops the derived tables."""
        compiled = tb.compile_query("?- anc('a', X).")
        before = set(tb.database.table_names())
        tb.database.drop_relation("e_parent")
        with pytest.raises(EvaluationError):
            compiled.program.execute(tb.database, tb.catalog)
        leftovers = set(tb.database.table_names()) - before
        assert not {t for t in leftovers if t.startswith("d_")}

    def test_failed_compile_leaves_no_tables(self, tb):
        before = set(tb.database.table_names())
        with pytest.raises(SemanticError):
            tb.compile_query("?- ghost(X).")
        assert set(tb.database.table_names()) == before

    def test_unsafe_rule_rejected_before_any_evaluation(self, tb):
        tb.define("broken(X, Y) :- parent(X, X2).")
        before = set(tb.database.table_names())
        with pytest.raises(SemanticError):
            tb.query("?- broken('a', Y).")
        assert set(tb.database.table_names()) == before

    def test_closed_database_raises_wrapped(self):
        testbed = Testbed()
        testbed.define("p(a, b).")
        testbed.close()
        with pytest.raises(EvaluationError):
            testbed.database.execute("SELECT 1")
