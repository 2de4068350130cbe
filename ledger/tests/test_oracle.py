"""The oracle on hand-built graphs, including a cycle."""

from ledger import inputs, oracle


def test_reachability_on_a_tree():
    edges = [("a", "b"), ("a", "c"), ("b", "d")]
    graph = oracle.adjacency(edges)
    assert oracle.reachable(graph, "a") == {"b", "c", "d"}
    assert oracle.reachable(graph, "b") == {"d"}
    assert oracle.reachable(graph, "d") == set()
    assert oracle.closure(edges) == {("a", "b"), ("a", "c"), ("a", "d"), ("b", "d")}


def test_reachability_on_a_cycle_includes_the_source():
    edges = [("x", "y"), ("y", "z"), ("z", "x"), ("z", "tail")]
    graph = oracle.adjacency(edges)
    assert oracle.reachable(graph, "x") == {"x", "y", "z", "tail"}
    assert oracle.reachable(graph, "tail") == set()
    assert len(oracle.closure(edges)) == 3 * 4


def test_chain_composition():
    step = {"a": "b", "b": "c", "c": "a"}
    assert oracle.compose([step] * 3, "a") == "a"
    assert oracle.compose([step] * 4, "a") == "b"
    assert oracle.compose([step, {"b": "z"}], "a") == "z"
    assert oracle.compose([step, {"q": "z"}], "a") is None


def test_same_generation_on_a_small_tree():
    parents = inputs.binary_tree("n", 2)  # n0 -> n1,n2 ; n1 -> n3,n4 ; n2 -> n5,n6
    pairs = oracle.same_generation(parents)
    level1 = {"n1", "n2"}
    level2 = {"n3", "n4", "n5", "n6"}
    expected = {(x, y) for x in level1 for y in level1} | {(x, y) for x in level2 for y in level2}
    assert pairs == expected


def test_rows_match_is_exact():
    expected = frozenset({("a",), ("b",)})
    assert oracle.rows_match([["a"], ["b"]], expected)
    assert not oracle.rows_match([["a"]], expected)
    assert not oracle.rows_match([["a"], ["b"], ["b"]], expected)  # a duplicate is wrong
    assert not oracle.rows_match([["a"], ["c"]], expected)
