"""Unit tests for the query compilation pipeline."""

import sys

import pytest

from repro.datalog import typecheck
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


def chain_rules(name, length, step):
    """``name_p0`` composes ``step`` ``length`` times, one rule per link."""
    rules = [
        f"{name}_p{i}(X, Y) :- {name}_p{i + 1}(X, Z), {step}(Z, Y)."
        for i in range(length - 1)
    ]
    rules.append(f"{name}_p{length - 1}(X, Y) :- {step}(X, Y).")
    return "\n".join(rules)


class TestColdCompileWork:
    def test_one_type_inference_per_cold_compile(self, testbed, monkeypatch):
        # The stored 40-rule chain of the ledger's compile_rulebase workload:
        # a cold compile infers the relevant rules' types once, not once
        # per rule.
        testbed.define_base_relation("q_b", ("TEXT", "TEXT"))
        testbed.define(chain_rules("q", 40, "q_b"))
        testbed.update_stored_dkb()
        original = typecheck.infer_types
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("repro") and vars(module).get("infer_types") is original:
                monkeypatch.setattr(module, "infer_types", counting)
        result = testbed.compile_query("?- q_p0('c0', Y).")
        assert result.counts["relevant_rules"] == 40
        assert len(calls) <= 1


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
