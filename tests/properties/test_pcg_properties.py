"""Property-based tests: PCG algorithms against NetworkX as an oracle, and
the evaluation order against the order enumerator."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.evalgraph import (
    EvaluationGraph,
    PredicateNode,
    all_evaluation_orders,
    evaluation_order,
)
from repro.datalog.pcg import PredicateConnectionGraph

nodes = st.sampled_from([f"p{i}" for i in range(8)])
edges = st.lists(st.tuples(nodes, nodes), min_size=0, max_size=25)


def transitive_closure_python(edge_list):
    """Reference closure of an edge list: a depth-first search per node."""
    successors = {}
    for source, target in edge_list:
        successors.setdefault(source, set()).add(target)
    closure = set()
    for start in successors:
        frontier = list(successors[start])
        reached = set()
        while frontier:
            node = frontier.pop()
            if node not in reached:
                reached.add(node)
                frontier.extend(successors.get(node, ()))
        closure.update((start, node) for node in reached)
    return closure


def build_pcg(edge_list):
    pcg = PredicateConnectionGraph()
    for head, body in edge_list:
        pcg.add_edge(head, body)
    return pcg


def build_nx(edge_list):
    graph = nx.DiGraph()
    graph.add_nodes_from({n for e in edge_list for n in e})
    graph.add_edges_from(edge_list)
    return graph


class TestReachability:
    @given(edges)
    @settings(max_examples=200)
    def test_matches_networkx_descendants(self, edge_list):
        pcg = build_pcg(edge_list)
        graph = build_nx(edge_list)
        for node in graph.nodes:
            # NetworkX descendants never include the start node; the paper's
            # reachability includes it exactly when it lies on a cycle.
            expected = set(nx.descendants(graph, node))
            on_cycle = any(
                nx.has_path(graph, successor, node)
                for successor in graph.successors(node)
            )
            if on_cycle:
                expected.add(node)
            assert pcg.reachable_from(node) == expected

    @given(edges)
    @settings(max_examples=150)
    def test_closure_matches_python_operator(self, edge_list):
        pcg = build_pcg(edge_list)
        assert pcg.transitive_closure() == transitive_closure_python(edge_list)


class TestStronglyConnectedComponents:
    @given(edges)
    @settings(max_examples=200)
    def test_matches_networkx(self, edge_list):
        pcg = build_pcg(edge_list)
        graph = build_nx(edge_list)
        ours = {frozenset(c) for c in pcg.strongly_connected_components()}
        theirs = {frozenset(c) for c in nx.strongly_connected_components(graph)}
        assert ours == theirs

    @given(edges)
    @settings(max_examples=100)
    def test_reverse_topological(self, edge_list):
        pcg = build_pcg(edge_list)
        components = pcg.strongly_connected_components()
        position = {}
        for index, component in enumerate(components):
            for node in component:
                position[node] = index
        # Every edge goes from a later (or equal) component to an earlier one.
        for head, body in edge_list:
            assert position[body] <= position[head]



class TestEvaluationOrder:
    @given(
        st.integers(min_value=0, max_value=12),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200)
    def test_is_the_first_order_the_enumerator_yields(self, size, pairs, rng):
        # The sort takes the smallest ready node index each step, so it is
        # the lexicographically first of all evaluation orders.
        rank = list(range(size))
        rng.shuffle(rank)
        edges = frozenset(
            (a, b) for a, b in pairs if a < size and b < size and rank[a] > rank[b]
        )
        graph = EvaluationGraph(
            tuple(PredicateNode(f"p{i}", ()) for i in range(size)), edges
        )
        assert evaluation_order(graph) == all_evaluation_orders(graph, limit=1)[0]
