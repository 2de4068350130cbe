"""Property-based test: a plain plan joined in SIP order is exact.

A goal over a non-recursive rule base gets no rewrite under
``optimize="auto"`` (nor under ``False``); its fused statement joins each
bound rule body in SIP order.  For every shape of
:mod:`tests.properties.plain_plans` and every goal binding, the fused
statement, the same plan run semi-naively and the independent top-down
evaluator must agree, on SQLite and (when its driver is installed) DuckDB.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import LfpStrategy, Testbed, TestbedConfig
from repro.dbms.backends.duck import duckdb_available
from repro.datalog.parser import parse_program, parse_query
from repro.runtime.topdown import evaluate_top_down

from .plain_plans import edges, plain_goals, plain_programs

OPTIMIZE = (False, "auto")
BACKENDS = ("sqlite", "duckdb") if duckdb_available() else ("sqlite",)
CHAIN = "p(X, Y) :- m1(X, Z), e(Z, Y). m1(X, Y) :- e(X, Z), m2(Z, Y). m2(X, Y) :- e(X, Y)."
NEGATED = "c(X, Y) :- e(X, Y). p(X, Y) :- f(X, Z), c(Z, Y), not c(Y, X)."
RING = [("n0", "n1"), ("n1", "n2"), ("n2", "n0"), ("n2", "n3")]


@given(plain_programs(), edges, edges, st.lists(plain_goals(), min_size=1, max_size=3))
@example(CHAIN, RING, [], ["?- p('n0', Y).", "?- p(X, 'n3').", "?- p(X, X)."])
@example(NEGATED, RING, [("n3", "n1"), ("n1", "n2")], ["?- p('n3', Y).", "?- p(X, 'n0')."])
@settings(max_examples=60, deadline=None)
def test_fused_plain_plan_matches_seminaive_and_top_down(rules, e, f, goals):
    facts = {"e": e, "f": f}
    program = parse_program(rules)
    expected = {goal: evaluate_top_down(program, facts, parse_query(goal)) for goal in goals}
    for backend in BACKENDS:
        with Testbed(TestbedConfig(backend=backend)) as tb:
            tb.define(rules)
            for name, rows in facts.items():
                tb.define_base_relation(name, ("TEXT", "TEXT"))
                tb.load_facts(name, rows)
            for goal in goals:
                for optimize in OPTIMIZE:
                    fused = tb.query(goal, optimize=optimize)
                    assert fused.compilation.program.fused is not None, goal
                    assert not fused.compilation.optimized
                    loop = tb.query(goal, optimize=optimize, strategy=LfpStrategy.SEMINAIVE)
                    plan = (backend, optimize, goal)
                    assert set(fused.rows) == set(loop.rows) == expected[goal], plan
