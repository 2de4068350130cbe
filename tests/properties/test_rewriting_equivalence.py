"""Property-based tests: every ``optimize`` setting preserves query answers.

Each plan — unrewritten (``optimize=False``), magic-sets rewritten
(``True``) and the default per-form decision — must return exactly what the
independent top-down evaluator derives from the same rules and facts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Testbed
from repro.datalog.parser import parse_program, parse_query
from repro.runtime.topdown import evaluate_top_down

NODES = [f"n{i}" for i in range(6)]
node = st.sampled_from(NODES)
graphs = st.lists(
    st.tuples(node, node).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=12,
    unique=True,
)

ANCESTOR = (
    "ancestor(X, Y) :- parent(X, Y)."
    "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y)."
)
SG = (
    "sg(X, Y) :- flat(X, Y)."
    "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)."
)
OPTIMIZE = ({"optimize": False}, {"optimize": True}, {})

# Layered (acyclic-by-construction) genealogies: ``up`` climbs the layers
# and ``down`` descends them, the shape same-generation queries are built for.
LEVELS = 4
PER_LEVEL = 3
layer_nodes = [
    [f"l{level}_{i}" for i in range(PER_LEVEL)] for level in range(LEVELS)
]
layered_edges = st.lists(
    st.tuples(
        st.integers(0, LEVELS - 2),
        st.integers(0, PER_LEVEL - 1),
        st.integers(0, PER_LEVEL - 1),
    ),
    min_size=1,
    max_size=15,
).map(
    lambda triples: sorted(
        {
            (layer_nodes[level][a], layer_nodes[level + 1][b])
            for level, a, b in triples
        }
    )
)
random_sg = st.tuples(graphs, graphs, graphs, node)
layered_sg = st.tuples(
    layered_edges, layered_edges, layered_edges, st.integers(0, PER_LEVEL - 1)
).map(
    lambda drawn: (
        [(b, a) for a, b in drawn[0]],  # reverse the downward edges
        drawn[1],
        drawn[2],
        layer_nodes[LEVELS - 1][drawn[3]],
    )
)


def assert_every_plan_matches_top_down(rules, facts, query):
    expected = evaluate_top_down(parse_program(rules), facts, parse_query(query))
    with Testbed() as tb:
        tb.define(rules)
        for name, edges in facts.items():
            tb.define_base_relation(name, ("TEXT", "TEXT"))
            tb.load_facts(name, edges)
        for options in OPTIMIZE:
            assert set(tb.query(query, **options).rows) == expected, options


class TestRewritingEquivalence:
    @given(graphs, node)
    @settings(max_examples=30, deadline=None)
    def test_ancestor_every_plan_agrees(self, edges, source):
        assert_every_plan_matches_top_down(
            ANCESTOR, {"parent": edges}, f"?- ancestor('{source}', Y)."
        )

    @given(st.one_of(random_sg, layered_sg))
    @settings(max_examples=30, deadline=None)
    def test_same_generation_every_plan_agrees(self, drawn):
        up, flat, down, source = drawn
        assert_every_plan_matches_top_down(
            SG,
            {"up": up, "flat": flat, "down": down},
            f"?- sg('{source}', Y).",
        )
