"""Unit tests for the Stored D/KB update algorithm."""

import pytest

from repro.datalog.pcg import PredicateConnectionGraph
from repro.km.config import TestbedConfig
from repro.km.session import Testbed
from repro.errors import UpdateError


@pytest.fixture
def tb():
    testbed = Testbed()
    testbed.define_base_relation("e", ("TEXT", "TEXT"))
    yield testbed
    testbed.close()


class TestUpdate:
    def test_rules_moved_to_stored(self, tb):
        tb.workspace.define("p(X, Y) :- e(X, Y).")
        result = tb.update_stored_dkb()
        assert len(result.new_rules) == 1
        assert tb.stored_rule_count == 1
        assert len(tb.workspace.rules) == 0  # workspace cleared

    def test_keep_workspace_option(self, tb):
        tb.workspace.define("p(X, Y) :- e(X, Y).")
        tb.update_stored_dkb(clear_workspace=False)
        assert len(tb.workspace.rules) == 1

    def test_dictionary_registered(self, tb):
        tb.workspace.define("p(X, Y) :- e(X, Y).")
        result = tb.update_stored_dkb()
        assert result.new_predicates == ["p"]
        assert tb.stored.derived_types_of(["p"]) == {"p": ("TEXT", "TEXT")}

    def test_closure_maintained_incrementally(self, tb):
        tb.workspace.define("p(X, Y) :- q(X, Z), e(Z, Y). q(X, Y) :- e(X, Y).")
        tb.update_stored_dkb()
        first = tb.stored.closure_pairs()
        # Expected: the closure of the PCG of the two rules.
        expected = PredicateConnectionGraph(
            tb.stored.all_rules().rules
        ).transitive_closure()
        assert first == expected

    def test_second_update_extends_closure(self, tb):
        tb.workspace.define("q(X, Y) :- e(X, Y).")
        tb.update_stored_dkb()
        tb.workspace.define("p(X, Y) :- q(X, Y).")
        result = tb.update_stored_dkb()
        assert ("p", "q") in tb.stored.closure_pairs()
        assert ("p", "e") in tb.stored.closure_pairs()
        assert result.new_closure_pairs == 2

    def test_idempotent_update(self, tb):
        tb.workspace.define("p(X, Y) :- e(X, Y).")
        tb.update_stored_dkb(clear_workspace=False)
        result = tb.update_stored_dkb()
        assert result.new_rules == []
        assert result.new_closure_pairs == 0
        assert tb.stored_rule_count == 1

    def test_type_conflict_rejected_and_rolled_back(self, tb):
        tb.define_base_relation("nums", ("INTEGER", "INTEGER"))
        tb.workspace.define("p(X, Y) :- e(X, Y).")
        tb.update_stored_dkb()
        closure_before = tb.stored.closure_pairs()
        rules_before = tb.stored_rule_count
        # A second definition of p with INTEGER columns conflicts.
        tb.workspace.define("p(X, Y) :- nums(X, Y).")
        with pytest.raises(UpdateError):
            tb.update_stored_dkb()
        assert tb.stored_rule_count == rules_before
        assert tb.stored.closure_pairs() == closure_before

    def test_dictionary_conflict_rolls_back(self, tb):
        tb.workspace.define("q(X, Y) :- e(X, Y).")
        tb.update_stored_dkb()
        closure_before = tb.stored.closure_pairs()
        # A dictionary entry no stored rule explains, typed against the
        # rule about to define it.
        tb.stored.register_predicates({"r": ("INTEGER", "INTEGER")}, {})
        tb.database.commit()
        tb.workspace.define("r(X, Y) :- q(X, Y).")
        with pytest.raises(UpdateError):
            tb.update_stored_dkb()
        assert tb.stored.closure_pairs() == closure_before
        assert tb.stored.rule_texts_with_head("r") == []
        assert tb.stored.derived_types_of(["r"]) == {"r": ("INTEGER", "INTEGER")}

    def test_timings_populated(self, tb):
        tb.workspace.define("p(X, Y) :- e(X, Y).")
        result = tb.update_stored_dkb()
        timings = result.timings.as_dict()
        assert timings["total"] > 0
        assert set(timings) == {
            "extract",
            "closure",
            "typecheck",
            "lint",
            "store",
            "total",
        }

    def test_queryable_after_update(self, tb):
        tb.workspace.define(
            "anc(X, Y) :- e(X, Y). anc(X, Y) :- e(X, Z), anc(Z, Y)."
        )
        tb.update_stored_dkb()
        tb.load_facts("e", [("a", "b"), ("b", "c")])
        rows = tb.query("?- anc('a', X).").rows
        assert sorted(rows) == [("b",), ("c",)]


def chain_module(name, length, base):
    """``length`` rules ``name_p0 -> name_p1 -> ... -> base``."""
    rules = [
        f"{name}_p{i}(X, Y) :- {name}_p{i + 1}(X, Z), {base}(Z, Y)."
        for i in range(length - 1)
    ]
    rules.append(f"{name}_p{length - 1}(X, Y) :- {base}(X, Y).")
    return "\n".join(rules)


def hooked_module(name, stored):
    """The 4-rule module of the perf ledger's update workload: a chain of
    new predicates whose last rule calls a stored predicate."""
    return (
        f"{name}_a(X, Y) :- {name}_b(X, Z), k0_b(Z, Y).\n"
        f"{name}_b(X, Y) :- {name}_c(X, Y).\n"
        f"{name}_c(X, Y) :- {name}_d(X, Y).\n"
        f"{name}_d(X, Y) :- {stored}(X, Y).\n"
    )


class TestStatementBudget:
    """An update costs its own rules: the statement count of a small update
    does not grow with the stored rule base."""

    MODULES = 9
    CHAIN = 21  # 9 x 21 = 189 stored rules, the paper's largest R_s

    @pytest.fixture
    def kb(self):
        testbed = Testbed()
        for module in range(self.MODULES):
            testbed.define_base_relation(f"k{module}_b", ("TEXT", "TEXT"))
        testbed.define(
            "\n".join(
                chain_module(f"k{m}", self.CHAIN, f"k{m}_b")
                for m in range(self.MODULES)
            )
        )
        testbed.update_stored_dkb()
        yield testbed
        testbed.close()

    def statements_of_update(self, kb, name, stored):
        kb.database.statistics.reset()
        kb.define(hooked_module(name, stored))
        result = kb.update_stored_dkb()
        assert len(result.new_rules) == 4
        return kb.database.statistics.total.statements

    def test_four_rule_update_within_budget_and_flat_in_rs(self, kb):
        assert kb.stored_rule_count == 189
        small = self.statements_of_update(kb, "u0", "k3_p5")
        assert small <= 12
        for i in range(1, 203):
            kb.define(hooked_module(f"g{i}", f"k{i % self.MODULES}_p{i % self.CHAIN}"))
            kb.update_stored_dkb()
        assert kb.stored_rule_count >= 1000
        assert self.statements_of_update(kb, "u1", "k3_p5") == small

    def test_two_thousand_rules_in_one_update(self):
        # Every IN list of the update (delta probe, extraction, closure
        # reads, dictionaries) is longer than the backend binds at once.
        with Testbed() as testbed:
            limit = testbed.database.capabilities.max_host_parameters
            modules, chain = 100, 20
            assert modules * chain > 2 * limit
            for module in range(modules):
                testbed.define_base_relation(f"m{module}_b", ("TEXT", "TEXT"))
            program = "\n".join(
                chain_module(f"m{m}", chain, f"m{m}_b") for m in range(modules)
            )
            testbed.define(program)
            result = testbed.update_stored_dkb()
            assert len(result.new_rules) == modules * chain
            assert len(result.new_predicates) == modules * chain
            assert testbed.stored_rule_count == modules * chain
            closure = testbed.stored.closure_pairs()
            assert result.new_closure_pairs == len(closure)
            testbed.stored.rebuild_closure()
            assert testbed.stored.closure_pairs() == closure
            # The same rules again: the delta probe finds every one stored.
            testbed.define(program)
            assert testbed.update_stored_dkb().new_rules == []


class TestSourceOnlyMode:
    def test_no_closure_written(self):
        tb = Testbed(TestbedConfig(compiled_rule_storage=False))
        tb.define_base_relation("e", ("TEXT", "TEXT"))
        tb.workspace.define("p(X, Y) :- e(X, Y).")
        result = tb.update_stored_dkb()
        assert result.new_closure_pairs == 0
        assert tb.stored.closure_pairs() == set()
        tb.close()

    def test_still_queryable(self):
        tb = Testbed(TestbedConfig(compiled_rule_storage=False))
        tb.define_base_relation("e", ("TEXT", "TEXT"))
        tb.workspace.define(
            "anc(X, Y) :- e(X, Y). anc(X, Y) :- e(X, Z), anc(Z, Y)."
        )
        tb.update_stored_dkb()
        tb.load_facts("e", [("a", "b"), ("b", "c")])
        assert sorted(tb.query("?- anc('a', X).").rows) == [("b",), ("c",)]
        tb.close()

    def test_update_of_rule_referencing_stored_predicate(self):
        tb = Testbed(TestbedConfig(compiled_rule_storage=False))
        tb.define_base_relation("e", ("TEXT", "TEXT"))
        tb.workspace.define("q(X, Y) :- e(X, Y).")
        tb.update_stored_dkb()
        # Types of q must come from the dictionary since no rules are
        # extracted in source-only mode.
        tb.workspace.define("p(X, Y) :- q(X, Y).")
        result = tb.update_stored_dkb()
        assert result.new_predicates == ["p"]
        tb.close()
