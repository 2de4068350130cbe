"""Unit tests for integrity constraints and consistency checking."""

import pytest

from repro.errors import UpdateError
from repro.km.constraints import constraint_rules, is_constraint
from repro.datalog.parser import parse_clause


class TestRecognition:
    def test_is_constraint(self):
        assert is_constraint(parse_clause("inconsistent(X) :- p(X, X)."))
        assert not is_constraint(parse_clause("p(X) :- q(X)."))
        assert not is_constraint(parse_clause("inconsistent(a)."))

    def test_constraint_rules_filter(self):
        clauses = [
            parse_clause("inconsistent(X) :- p(X, X)."),
            parse_clause("p(X, Y) :- e(X, Y)."),
        ]
        assert constraint_rules(clauses) == clauses[:1]


class TestChecking:
    @pytest.fixture
    def tb(self, testbed):
        testbed.define(
            """
            parent(a, b). parent(b, c).
            ancestor(X, Y) :- parent(X, Y).
            ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
            inconsistent(X) :- ancestor(X, X).
            """
        )
        return testbed

    def test_consistent_initially(self, tb):
        assert tb.check_consistency() == []

    def test_violation_detected_with_witnesses(self, tb):
        tb.load_facts("parent", [("c", "a")])  # closes the cycle
        violations = tb.check_consistency()
        assert len(violations) == 1
        assert violations[0].witnesses == (("a",), ("b",), ("c",))
        assert "ancestor(X, X)" in violations[0].describe()

    def test_update_refused_when_inconsistent(self, tb):
        tb.load_facts("parent", [("c", "a")])
        with pytest.raises(UpdateError, match="consistency"):
            tb.update_stored_dkb(verify_consistency=True)
        assert tb.stored_rule_count == 0

    def test_update_unchecked_by_default(self, tb):
        tb.load_facts("parent", [("c", "a")])
        result = tb.update_stored_dkb()  # the paper's behaviour
        assert len(result.new_rules) == 3

    def test_stored_constraints_still_checked(self, tb):
        tb.update_stored_dkb()
        assert tb.stored_rule_count == 3
        tb.load_facts("parent", [("c", "a")])
        violations = tb.check_consistency()
        assert len(violations) == 1

    def test_stored_constraint_blocks_later_update(self, tb):
        tb.update_stored_dkb()  # the constraint is now stored, not in the workspace
        tb.load_facts("parent", [("c", "a")])
        tb.define("sibling(X, Y) :- parent(Z, X), parent(Z, Y).")
        with pytest.raises(UpdateError, match="consistency"):
            tb.update_stored_dkb(verify_consistency=True)
        assert tb.stored_rule_count == 3

    def test_check_reads_only_stored_constraints(self, tb):
        tb.define("\n".join(f"f{i}(X, Y) :- parent(X, Y)." for i in range(60)))
        tb.update_stored_dkb()
        tb.database.statistics.reset()
        assert tb.check_consistency() == []
        # The constraint, its two relevant rules and its answer — none of
        # the 60 unrelated stored rules.
        assert tb.database.statistics.total.rows_fetched < 20

    def test_multiple_constraints(self, testbed):
        testbed.define(
            """
            employee(ann, 100). employee(bob, -5).
            manages(ann, ann).
            inconsistent(X) :- manages(X, X).
            """
        )
        violations = testbed.check_consistency()
        assert len(violations) == 1
        assert violations[0].witnesses == (("ann",),)

    def test_constraint_over_undefined_predicate_vacuous(self, testbed):
        testbed.define("inconsistent(X) :- ghost(X, X).")
        assert testbed.check_consistency() == []

    def test_negation_in_constraints(self, testbed):
        testbed.define(
            """
            registered(ann). registered(bob).
            badged(ann).
            inconsistent(X) :- registered(X), not badged(X).
            """
        )
        violations = testbed.check_consistency()
        assert violations[0].witnesses == (("bob",),)
