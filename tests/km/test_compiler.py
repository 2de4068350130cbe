"""Unit tests for the query compilation pipeline."""

import pytest

from repro.km.session import Testbed
from repro.runtime.program import LfpStrategy
from repro.workloads.rulegen import make_rule_base


@pytest.fixture
def stored_testbed():
    """A testbed with a 30-rule stored base (query module of 5 rules)."""
    rule_base = make_rule_base(30, 5)
    tb = Testbed()
    for base in rule_base.base_predicates:
        tb.define_base_relation(base, ("TEXT", "TEXT"))
    tb.workspace.add_clauses(rule_base.program.rules)
    tb.update_stored_dkb()
    yield tb, rule_base
    tb.close()


class TestCompile:
    def test_counts_relevant_rules(self, stored_testbed):
        tb, rule_base = stored_testbed
        result = tb.compile_query(rule_base.query_text())
        assert result.counts["relevant_rules"] == 5
        assert result.counts["stored_rules_extracted"] == 5

    def test_all_timing_components_present(self, stored_testbed):
        tb, rule_base = stored_testbed
        result = tb.compile_query(rule_base.query_text())
        timings = result.timings.as_dict()
        for component in (
            "setup",
            "extract",
            "readdict",
            "semantic",
            "eorder",
            "gencompile",
        ):
            assert timings[component] >= 0.0
        assert timings["total"] == pytest.approx(
            sum(v for k, v in timings.items() if k != "total")
        )

    def test_fragment_source_attached(self, stored_testbed):
        tb, rule_base = stored_testbed
        result = tb.compile_query(rule_base.query_text())
        assert "PROGRAM = link_program(SPEC)" in result.fragment_source

    def test_optimize_flag_recorded(self, stored_testbed):
        tb, rule_base = stored_testbed
        result = tb.compile_query(rule_base.query_text(), optimize=True)
        assert result.optimized
        assert result.timings.optimize > 0.0

    def test_optimize_falls_back_when_inapplicable(self, stored_testbed):
        tb, rule_base = stored_testbed
        root = rule_base.query_module.root_predicate
        result = tb.compile_query(f"?- {root}(X, Y).", optimize=True)
        assert not result.optimized

    def test_strategy_embedded_in_program(self, stored_testbed):
        tb, rule_base = stored_testbed
        result = tb.compile_query(
            rule_base.query_text(), strategy=LfpStrategy.NAIVE
        )
        assert result.program.strategy is LfpStrategy.NAIVE

    def test_irrelevant_rules_not_extracted(self, stored_testbed):
        tb, rule_base = stored_testbed
        result = tb.compile_query(rule_base.query_text())
        heads = {c.head_predicate for c in result.relevant_rules}
        for module in rule_base.filler_modules:
            assert not heads & set(module.predicates)


class TestWorkspaceStoredInterplay:
    def test_workspace_rule_over_stored_rules(self, stored_testbed):
        tb, rule_base = stored_testbed
        root = rule_base.query_module.root_predicate
        tb.workspace.define(f"myview(X, Y) :- {root}(X, Y).")
        result = tb.compile_query("?- myview('a', Y).")
        heads = {c.head_predicate for c in result.relevant_rules}
        assert "myview" in heads
        assert root in heads
        assert result.counts["stored_rules_extracted"] == 5

    def test_stored_rule_referencing_workspace(self, testbed):
        # A stored rule body can reference a predicate defined only in the
        # workspace at query time (the paper's section 3.1 allows both
        # directions).
        testbed.define_base_relation("e", ("TEXT", "TEXT"))
        testbed.workspace.define("sview(X, Y) :- wsrule(X, Y).")
        # Force-store sview without storing wsrule.
        testbed.stored.store_rules(testbed.workspace.rules)
        testbed.stored.register_predicates({"sview": ("TEXT", "TEXT")}, {})
        testbed.stored.rebuild_closure()
        testbed.workspace.clear()
        testbed.workspace.define("wsrule(X, Y) :- e(X, Y).")
        result = testbed.compile_query("?- sview('a', X).")
        heads = {c.head_predicate for c in result.relevant_rules}
        assert heads == {"sview", "wsrule"}

    def test_query_over_base_relation_only(self, testbed):
        testbed.define_base_relation("e", ("TEXT", "TEXT"))
        result = testbed.compile_query("?- e('a', X).")
        assert result.counts["relevant_rules"] == 0
        assert len(result.program.order) == 0
