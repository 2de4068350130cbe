"""Property-based tests: every evaluation path computes the same relation.

The strongest correctness argument in the suite: on random graphs and random
query bindings, the bottom-up SQL strategies, the magic-sets-rewritten
plans, the in-memory top-down evaluator, and plain graph reachability must
all agree exactly.  On the paper's four workload shapes (lists, full binary
trees, layered DAGs, cyclic graphs) every strategy also takes a fixed number
of LFP iterations.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LfpStrategy, Testbed
from repro.datalog.parser import parse_program, parse_query
from repro.runtime.program import DEFAULT_STRATEGY
from repro.runtime.topdown import evaluate_top_down
from repro.workloads.relations import (
    full_binary_trees,
    lists,
    random_cyclic_graph,
    random_dag,
)

NODES = [f"n{i}" for i in range(7)]
node = st.sampled_from(NODES)
graphs = st.lists(
    st.tuples(node, node).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=16,
    unique=True,
)

ANCESTOR = (
    "ancestor(X, Y) :- parent(X, Y)."
    "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y)."
)


def graph_reachability(edges, source):
    graph = nx.DiGraph(edges)
    if source not in graph:
        return set()
    out = set(nx.descendants(graph, source))
    if any(nx.has_path(graph, t, source) for __, t in graph.out_edges(source)):
        out.add(source)
    return {(n,) for n in out}


def fresh_testbed(edges):
    tb = Testbed()
    tb.define(ANCESTOR)
    tb.define_base_relation("parent", ("TEXT", "TEXT"))
    tb.load_facts("parent", edges)
    return tb


class TestAncestorEquivalence:
    @given(graphs, node)
    @settings(max_examples=40, deadline=None)
    def test_all_paths_agree_with_graph_reachability(self, edges, source):
        expected = graph_reachability(edges, source)
        tb = fresh_testbed(edges)
        try:
            query = f"?- ancestor('{source}', Y)."
            for optimize in (False, True):
                for strategy in LfpStrategy:
                    rows = set(
                        tb.query(query, optimize=optimize, strategy=strategy).rows
                    )
                    assert rows == expected, (optimize, strategy, edges, source)
        finally:
            tb.close()
        # The independent in-memory top-down evaluator agrees too.
        program = parse_program(ANCESTOR)
        answers = evaluate_top_down(
            program, {"parent": edges}, parse_query(query)
        )
        assert answers == {row for row in expected}

    @given(graphs)
    @settings(max_examples=25, deadline=None)
    def test_free_query_equals_transitive_closure(self, edges):
        graph = nx.DiGraph(edges)
        closure = set()
        for source in graph.nodes:
            for target in nx.descendants(graph, source):
                closure.add((source, target))
            if any(
                nx.has_path(graph, t, source)
                for __, t in graph.out_edges(source)
            ):
                closure.add((source, source))
        tb = fresh_testbed(edges)
        try:
            rows = set(tb.query("?- ancestor(X, Y).").rows)
            assert rows == closure
        finally:
            tb.close()


class TestSameGenerationEquivalence:
    SG = (
        "sg(X, Y) :- flat(X, Y)."
        "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)."
    )

    @given(graphs, graphs, graphs, node)
    @settings(max_examples=20, deadline=None)
    def test_magic_matches_plain_and_topdown(self, up, flat, down, source):
        tb = Testbed()
        try:
            tb.define(self.SG)
            for name, edges in (("up", up), ("flat", flat), ("down", down)):
                tb.define_base_relation(name, ("TEXT", "TEXT"))
                tb.load_facts(name, edges)
            query = f"?- sg('{source}', Y)."
            plain = set(tb.query(query).rows)
            magic = set(tb.query(query, optimize=True).rows)
            assert plain == magic
            program = parse_program(self.SG)
            topdown = evaluate_top_down(
                program,
                {"up": up, "flat": flat, "down": down},
                parse_query(query),
            )
            assert topdown == plain
        finally:
            tb.close()


def top_down(edges, query):
    """The independent oracle's answer to ``query`` over ``parent`` edges."""
    return evaluate_top_down(
        parse_program(ANCESTOR), {"parent": list(edges)}, parse_query(query)
    )


def run_query(edges, strategy, query="?- ancestor(X, Y)."):
    """Rows and ``iterations_by_clique`` of one query on a fresh testbed."""
    tb = fresh_testbed(edges)
    try:
        result = tb.query(query, strategy=strategy)
        return set(result.rows), dict(result.execution.iterations_by_clique)
    finally:
        tb.close()


WORKLOADS = {
    "list": lambda: lists(2, 6),
    "tree": lambda: full_binary_trees(1, 5),
    "dag": lambda: random_dag(30, 5, seed=7),
    "cyclic": lambda: random_cyclic_graph(30, 5, cycle_count=3, seed=7),
}

# LFP iterations of the unbound ancestor query per shape: the longest
# shortest path plus the pass that finds nothing new.  The fused default
# reports one statement per clique.
ITERATIONS = {"list": 6, "tree": 5, "dag": 5, "cyclic": 6}

STRATEGIES = [
    LfpStrategy.NAIVE,
    LfpStrategy.SEMINAIVE,
    DEFAULT_STRATEGY,
]


class TestWorkloadShapes:
    @pytest.mark.parametrize("shape", sorted(WORKLOADS))
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
    def test_free_query_matches_top_down(self, shape, strategy):
        edges = WORKLOADS[shape]().edges
        rows, iterations = run_query(edges, strategy)
        assert rows == top_down(edges, "?- ancestor(X, Y)."), shape
        expected = 1 if strategy is DEFAULT_STRATEGY else ITERATIONS[shape]
        assert iterations == {"ancestor": expected}, (shape, strategy)

    @pytest.mark.parametrize("shape", sorted(WORKLOADS))
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
    def test_bound_query_matches_top_down(self, shape, strategy):
        relation = WORKLOADS[shape]()
        query = f"?- ancestor('{sorted(relation.nodes)[0]}', Y)."
        rows, __ = run_query(relation.edges, strategy, query)
        assert rows == top_down(relation.edges, query), (shape, strategy)


def longest_shortest_path(edges):
    """Edges on the longest shortest path between two related nodes (a
    node is related to itself through a cycle)."""
    graph = nx.DiGraph(edges)
    distances = dict(nx.all_pairs_shortest_path_length(graph))
    longest = 0
    for source in graph.nodes:
        for target, length in distances[source].items():
            if target == source:
                cycles = [
                    1 + distances[u][source]
                    for __, u in graph.out_edges(source)
                    if source in distances[u]
                ]
                length = min(cycles, default=0)
            longest = max(longest, length)
    return longest


class TestRandomGraphIterations:
    @given(graphs)
    @settings(max_examples=25, deadline=None)
    def test_iterating_strategies_agree_with_the_oracles(self, edges):
        expected_rows = top_down(edges, "?- ancestor(X, Y).")
        expected_iterations = longest_shortest_path(edges) + 1
        for strategy in STRATEGIES[:2]:
            rows, iterations = run_query(edges, strategy)
            assert rows == expected_rows, (strategy, edges)
            assert iterations == {"ancestor": expected_iterations}, (
                strategy,
                edges,
            )
