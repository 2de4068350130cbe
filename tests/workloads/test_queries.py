"""Unit tests for the canonical query families and selectivity computation."""

import pytest

from repro.workloads.queries import (
    ancestor_query,
    expected_ancestor_answers,
    load_parent_relation,
    make_ancestor_testbed,
    selectivity_of,
)
from repro.workloads.relations import (
    full_binary_trees,
    lists,
    tree_node,
)


class TestSelectivity:
    def test_root_selectivity_is_one(self):
        relation = full_binary_trees(1, 4)
        point = selectivity_of(relation, tree_node("t", 1))
        assert point.selectivity == 1.0
        assert point.relevant_facts == relation.tuple_count

    def test_leaf_selectivity_is_zero(self):
        relation = full_binary_trees(1, 4)
        point = selectivity_of(relation, tree_node("t", 8))
        assert point.selectivity == 0.0

    def test_subtree_selectivity(self):
        relation = full_binary_trees(1, 4)
        point = selectivity_of(relation, tree_node("t", 2))
        assert point.relevant_facts == 6  # depth-3 subtree has 2^3-2 edges
        assert point.selectivity == pytest.approx(6 / 14)

    def test_list_selectivity(self):
        relation = lists(1, 5)
        first = relation.edges[0][0]
        point = selectivity_of(relation, first)
        assert point.selectivity == 1.0


class TestExpectedAnswers:
    def test_matches_subtree(self):
        relation = full_binary_trees(1, 3)
        answers = expected_ancestor_answers(relation, tree_node("t", 2))
        assert answers == {(tree_node("t", 4),), (tree_node("t", 5),)}


class TestTestbedBuilders:
    def test_make_ancestor_testbed_right_linear(self):
        relation = full_binary_trees(1, 4)
        tb = make_ancestor_testbed(relation)
        root = tree_node("t", 2)
        rows = set(tb.query(ancestor_query(root)).rows)
        assert rows == expected_ancestor_answers(relation, root)
        tb.close()

    def test_make_ancestor_testbed_left_linear(self):
        relation = full_binary_trees(1, 4)
        tb = make_ancestor_testbed(relation, left_linear=True)
        root = tree_node("t", 2)
        rows = set(tb.query(ancestor_query(root)).rows)
        assert rows == expected_ancestor_answers(relation, root)
        tb.close()

    def test_load_parent_relation_appends(self, testbed):
        relation = lists(1, 3)
        assert load_parent_relation(testbed, relation) == 2
        assert load_parent_relation(testbed, relation) == 2
        assert testbed.catalog.fact_count("parent") == 4
