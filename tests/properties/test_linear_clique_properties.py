"""Property-based test: every plan of a bound linear clique is exact.

A bound goal over a one-predicate linear clique gets one of three plans
under ``optimize="auto"``: factored, magic sets with its implied guards
dropped, or (``optimize=False``) none.  ``optimize=True`` forces magic sets.
Each must return what the independent top-down evaluator derives, for every
recursive shape of :mod:`tests.properties.linear_cliques`, in both body
orders, under ``bf``, ``fb`` and ``bb`` goals, on cyclic data, on SQLite
and (when its driver is installed) DuckDB; and every
adorned fact a rewrite derives must lie in its magic set, which a guard
dropped where it is not implied breaks without changing an answer.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Testbed, TestbedConfig
from repro.dbms.backends.duck import duckdb_available
from repro.datalog.parser import parse_program, parse_query
from repro.runtime.topdown import evaluate_top_down

from .linear_cliques import assert_guards_hold, bound_goals, edges, linear_cliques

OPTIMIZE = (False, True, "auto")
BACKENDS = ("sqlite", "duckdb") if duckdb_available() else ("sqlite",)
RIGHT = "p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y)."
LEFT = "p(X, Y) :- e(X, Y). p(X, Y) :- p(X, Z), e(Z, Y)."
CYCLE = [("n0", "n1"), ("n1", "n2"), ("n2", "n0"), ("n2", "n3")]


def answers(rules, facts, goal):
    """The rows of ``goal`` per backend and ``optimize`` setting."""
    out = {}
    for backend in BACKENDS:
        with Testbed(TestbedConfig(backend=backend)) as tb:
            tb.define(rules)
            for name, rows in facts.items():
                tb.define_base_relation(name, ("TEXT", "TEXT"))
                tb.load_facts(name, rows)
            for optimize in OPTIMIZE:
                out[backend, optimize] = set(tb.query(goal, optimize=optimize).rows)
    return out


@given(linear_cliques(), edges, edges, st.lists(bound_goals(), min_size=1, max_size=3))
@example(RIGHT, CYCLE, [], ["?- p('n0', Y).", "?- p(X, 'n3')."])
@example(LEFT, CYCLE, [], ["?- p('n0', Y).", "?- p(X, 'n3')."])
@example(
    "p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y), f(Z, W).",
    CYCLE,
    [("n1", "n1")],
    ["?- p('n0', Y)."],
)
@example(  # the passed-through argument is filtered: not factorable
    "p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y), f(Y, W).",
    [("n0", "n1"), ("n1", "n2")],
    [("n4", "n4")],
    ["?- p('n0', Y).", "?- p(X, 'n2')."],
)
@example(
    "p(X, Y) :- e(X, Y). p(X, Y) :- p(X, Z), e(Z, Y), f(X, W).",
    [("n0", "n1"), ("n1", "n2")],
    [("n4", "n4")],
    ["?- p(X, 'n2').", "?- p('n0', Y)."],
)
@settings(max_examples=80, deadline=None)
def test_every_plan_matches_top_down(rules, e, f, goals):
    facts = {"e": e, "f": f}
    program = parse_program(rules)
    for goal in goals:
        expected = evaluate_top_down(program, facts, parse_query(goal))
        for plan, rows in answers(rules, facts, goal).items():
            assert rows == expected, (plan, goal)
        assert_guards_hold(rules, facts, goal)
