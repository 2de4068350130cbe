"""Property-based test: the default (plan-cached) query path is never stale.

Random interleavings of ``define`` / ``update_stored_dkb`` / ``load_facts`` /
``query`` over :mod:`repro.workloads.rulegen` modules.  After every step a
query answered through the precompiled-plan cache must agree with a fresh
compilation (``precompile=False``) and with the independent in-memory
top-down evaluator over a model of the rules and facts entered so far —
or fail with the same error when its rules are not all there yet.  Each run
uses either the default strategy (whose cached plans carry their one-statement
form across rebinds) or semi-naive iteration, and one ``optimize`` setting:
the default per-form decision, none, or a forced magic-sets rewrite.  Rewritten plans are cached per form too, so a query rebinds a plan
another constant compiled, magic seed and all.  The bound linear cliques of
:mod:`tests.properties.linear_cliques` run the same way, so factored plans
and plans with implied guards dropped are rebound across constants too.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import LfpStrategy, Testbed
from repro.datalog.clauses import Program
from repro.datalog.parser import parse_clause, parse_program, parse_query
from repro.errors import TestbedError
from repro.runtime.topdown import evaluate_top_down
from repro.workloads.rulegen import make_module

from . import linear_cliques

MODULES = [
    make_module("m0", 3, rules_per_predicate=2),
    make_module("m1", 2, rules_per_predicate=2, recursive=True),
]
# The one-body-per-predicate subset of each: enough for every query to compile.
COMPLETE = [
    rule
    for name, length in (("m0", 3), ("m1", 2))
    for rule in make_module(name, length).rules
]
# Rule bodies that call a recursive predicate with a query constant from an
# all-free context: a rewrite turns each into a ground magic fact, which may
# equal one query's seed row and not the next one's.  ``p_m1_1`` reads
# ``base_m0`` only while ``w_m1`` is non-empty, so losing such a fact
# changes its answers.
ENABLER = parse_clause("p_m1_1(X, Y) :- base_m0(X, Y), w_m1(Z).")
SEED_TWINS = [
    parse_clause("w_m1(Z) :- p_m1_1(Z, 'a')."),
    parse_clause("w_m1(Z) :- p_m1_0('b', Z)."),
]
# A module's alternative bodies derive what its first bodies do, so the rules
# that change answers once a module is complete are m1's recursive one and
# these, which also make plans of one module depend on the other.
DEFINABLE = [rule for chosen in MODULES for rule in chosen.rules] + [
    parse_clause("p_m0_2(X, Y) :- base_m1(X, Y)."),
    parse_clause("p_m1_0(X, Y) :- p_m0_1(X, Y)."),
    ENABLER,
    *SEED_TWINS,
]
NODES = ["a", "b", "c"]
OPTIMIZE = [{}, {"optimize": False}, {"optimize": True}]

module = st.sampled_from(MODULES)
node = st.sampled_from(NODES)


@st.composite
def steps(draw):
    """One step; queries are common and few in form, so plans get reused."""
    kind = draw(
        st.sampled_from(["define", "update", "load"] + ["query"] * 5)
    )
    chosen = draw(module)
    if kind == "define":
        return kind, chosen, draw(st.sampled_from(DEFINABLE))
    if kind == "load":
        return kind, chosen, (draw(node), draw(node))
    if kind == "query":
        predicate = draw(st.sampled_from(chosen.predicates[:2]))
        first = draw(st.sampled_from(["X", "X", "'a'", "'b'"]))
        second = draw(st.sampled_from(["Y", "Y", "'a'", "'b'"]))
        return kind, chosen, f"?- {predicate}({first}, {second})."
    return kind, chosen, None  # update


def outcome(testbed, text, **options):
    """The sorted answer rows, or the error type the query raised."""
    try:
        return sorted(set(testbed.query(text, **options).rows))
    except TestbedError as error:
        return type(error)


edges = st.lists(st.tuples(node, node), max_size=5)


@given(
    st.sampled_from([{}, {"strategy": LfpStrategy.SEMINAIVE}]),
    st.sampled_from(OPTIMIZE),
    st.booleans(),
    edges,
    edges,
    st.lists(steps(), min_size=10, max_size=30),
)
@example(  # the dedupe trap: a rule's magic fact equals the first seed row
    {},
    {},
    True,
    [("a", "b")],
    [("b", "a"), ("c", "b")],
    [
        ("define", MODULES[1], ENABLER),
        ("define", MODULES[1], SEED_TWINS[0]),
        ("query", MODULES[1], "?- p_m1_1(X, 'a')."),
        ("query", MODULES[1], "?- p_m1_1(X, 'b')."),
    ],
)
@settings(max_examples=60, deadline=None)
def test_cached_plans_track_every_rule_and_fact_change(
    strategy, optimize, complete, edges0, edges1, sequence
):
    options = {**strategy, **optimize}
    rules = Program()
    facts = {
        chosen.base_predicate: set(rows)
        for chosen, rows in zip(MODULES, (edges0, edges1))
    }
    with Testbed() as testbed:
        for base, rows in facts.items():
            testbed.define_base_relation(base, ("TEXT", "TEXT"))
            testbed.load_facts(base, sorted(rows))
        if complete:
            testbed.define("\n".join(str(rule) for rule in COMPLETE))
            rules.extend(COMPLETE)
        for kind, chosen, argument in sequence:
            if kind == "define":
                testbed.define(str(argument))
                rules.add(argument)
            elif kind == "update":
                testbed.update_stored_dkb()
            elif kind == "load":
                testbed.load_facts(chosen.base_predicate, [argument])
                facts[chosen.base_predicate].add(argument)
            else:
                fresh = outcome(testbed, argument, precompile=False, **options)
                assert outcome(testbed, argument, **options) == fresh
                if isinstance(fresh, list):
                    expected = evaluate_top_down(
                        rules, facts, parse_query(argument)
                    )
                    assert fresh == sorted(expected)


@st.composite
def clique_steps(draw):
    """A bound goal on the clique, or one new ``e`` or ``f`` edge."""
    if draw(st.integers(0, 3)):
        return "query", draw(linear_cliques.bound_goals())
    edge = (draw(linear_cliques.node), draw(linear_cliques.node))
    return "load", (draw(st.sampled_from(["e", "f"])), edge)


@given(
    st.sampled_from([{}, {"strategy": LfpStrategy.SEMINAIVE}]),
    st.sampled_from(OPTIMIZE),
    linear_cliques.linear_cliques(),
    linear_cliques.edges,
    linear_cliques.edges,
    st.lists(clique_steps(), min_size=4, max_size=14),
)
@settings(max_examples=60, deadline=None)
def test_cached_linear_clique_plans_rebind(strategy, optimize, rules, e, f, sequence):
    options = {**strategy, **optimize}
    facts = {"e": set(e), "f": set(f)}
    program = parse_program(rules)
    with Testbed() as testbed:
        for base, rows in facts.items():
            testbed.define_base_relation(base, ("TEXT", "TEXT"))
            testbed.load_facts(base, sorted(rows))
        testbed.define(rules)
        for kind, argument in sequence:
            if kind == "load":
                base, edge = argument
                testbed.load_facts(base, [edge])
                facts[base].add(edge)
                continue
            fresh = outcome(testbed, argument, precompile=False, **options)
            assert outcome(testbed, argument, **options) == fresh
            expected = evaluate_top_down(program, facts, parse_query(argument))
            assert fresh == sorted(expected), argument
            linear_cliques.assert_guards_hold(rules, facts, argument)
