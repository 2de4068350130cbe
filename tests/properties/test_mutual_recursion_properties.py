"""Property tests: mutually recursive cliques under every strategy.

A linear clique of several predicates fuses into one recursive CTE over the
members' tagged union; a clique with a non-linear rule runs the semi-naive
loop instead.  On random graphs, free and bound goals, with and without the
magic-sets rewrite, every strategy must return exactly what the top-down
oracle (:mod:`repro.runtime.topdown`) derives.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LfpStrategy, Testbed
from repro.datalog.parser import parse_program, parse_query
from repro.runtime.topdown import evaluate_top_down

NODES = [f"n{i}" for i in range(6)]
graphs = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
    min_size=1,
    max_size=14,
    unique=True,
)

EVEN_ODD = (
    "odd(X, Y) :- e(X, Y)."
    "odd(X, Y) :- e(X, Z), even(Z, Y)."
    "even(X, Y) :- e(X, Z), odd(Z, Y)."
)
# p/2 -> r/2 -> q/1 -> p/2: three members of three shapes.
MIXED_ARITY = (
    "p(X, Y) :- e(X, Y)."
    "p(X, Y) :- e(X, Z), r(Z, Y)."
    "q(Y) :- p(X, Y)."
    "r(X, Y) :- q(X), e(X, Y)."
)
# a/b is mutual, and a's second rule reads the clique twice.
NON_LINEAR = (
    "a(X, Y) :- e(X, Y)."
    "a(X, Y) :- b(X, Z), b(Z, Y)."
    "b(X, Y) :- a(X, Y)."
)

# (rules, goals, whether the default strategy fuses the free plan)
PROGRAMS = {
    "even/odd": (
        EVEN_ODD,
        ["?- even(X, Y).", "?- odd('n0', Y).", "?- even(X, 'n1')."],
        True,
    ),
    "mixed arity": (
        MIXED_ARITY,
        ["?- p(X, Y).", "?- q(X).", "?- r('n2', Y).", "?- p(X, 'n3').", "?- q('n1')."],
        True,
    ),
    "non-linear": (
        NON_LINEAR,
        ["?- a(X, Y).", "?- b('n0', Y).", "?- a(X, 'n2')."],
        False,
    ),
}


@pytest.mark.parametrize("strategy", list(LfpStrategy), ids=lambda s: s.value)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
@given(edges=graphs)
@settings(max_examples=15, deadline=None)
def test_every_strategy_matches_top_down(name, strategy, edges):
    rules, goals, fuses = PROGRAMS[name]
    program = parse_program(rules)
    with Testbed() as tb:
        tb.define(rules)
        tb.define_base_relation("e", ("TEXT", "TEXT"))
        tb.load_facts("e", edges)
        for goal in goals:
            expected = evaluate_top_down(program, {"e": edges}, parse_query(goal))
            for optimize in ("auto", False):
                result = tb.query(goal, optimize=optimize, strategy=strategy)
                assert set(result.rows) == expected, (goal, optimize)
                if strategy is not LfpStrategy.LFP_CTE:
                    continue
                verdicts = set(result.execution.strategy_by_clique.values())
                if fuses:
                    assert verdicts == {"lfp_cte"}, (goal, optimize)
                else:
                    assert all(v.startswith("fallback: ") for v in verdicts)
                    assert any("non-linear" in v for v in verdicts)
