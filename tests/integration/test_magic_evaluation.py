"""End-to-end magic-sets evaluation on the shapes its rewrite must handle."""

import pytest

from repro import Testbed
from repro.datalog.parser import parse_program, parse_query
from repro.runtime.topdown import evaluate_top_down

ANCESTOR = "anc(X, Y) :- e(X, Y). anc(X, Y) :- e(X, Z), anc(Z, Y)."
SG = (
    "sg(X, Y) :- flat(X, Y)."
    "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)."
)


def make_testbed(rules, facts):
    tb = Testbed()
    tb.define(rules)
    for name, rows in facts.items():
        tb.define_base_relation(name, ("TEXT", "TEXT"))
        tb.load_facts(name, rows)
    return tb


@pytest.mark.parametrize("optimize", [False, True])
class TestMagicEvaluation:
    def test_cyclic_data_reaches_a_fixpoint(self, optimize):
        with make_testbed(ANCESTOR, {"e": [("a", "b"), ("b", "a")]}) as tb:
            rows = tb.query("?- anc('a', Y).", optimize=optimize).rows
            assert sorted(rows) == [("a",), ("b",)]

    def test_unknown_constant_has_no_answers(self, optimize):
        with make_testbed(ANCESTOR, {"e": [("x", "y")]}) as tb:
            assert tb.query("?- anc('unknown', Y).", optimize=optimize).rows == []

    def test_same_generation(self, optimize):
        facts = {
            "up": [("ann", "carol"), ("carol", "eve")],
            "flat": [("carol", "dave")],
            "down": [("dave", "frank")],
        }
        with make_testbed(SG, facts) as tb:
            rows = tb.query("?- sg('ann', Y).", optimize=optimize).rows
            assert rows == [("frank",)]

    def test_layered_same_generation_matches_top_down(self, optimize):
        facts = {
            "up": [(f"a{i}", f"a{i + 1}") for i in range(4)],
            "flat": [("a4", "b4"), ("a2", "b2")],
            "down": [(f"b{i + 1}", f"b{i}") for i in range(4)],
        }
        query = "?- sg('a0', Y)."
        expected = evaluate_top_down(parse_program(SG), facts, parse_query(query))
        assert expected
        with make_testbed(SG, facts) as tb:
            assert set(tb.query(query, optimize=optimize).rows) == expected

    def test_no_tables_left_behind(self, optimize):
        with make_testbed(ANCESTOR, {"e": [("a", "b"), ("b", "c")]}) as tb:
            before = set(tb.database.table_names())
            for root in ("a", "b", "a"):
                tb.query(f"?- anc('{root}', Y).", optimize=optimize)
            assert set(tb.database.table_names()) == before
