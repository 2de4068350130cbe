"""Incremental maintenance costs what the change costs.

Two regressions guard the maintenance engines' physical design: the work
of a small write must follow the delta, not the size of the view (every
membership test probes an index, re-derivation starts from the
candidates), and a warm write must issue no DDL and only statement texts
the handle has already prepared (stable scratch relations).
"""

from __future__ import annotations

from repro.workloads.queries import make_ancestor_testbed
from repro.workloads.relations import full_binary_trees, tree_node

DDL = {"CREATE", "DROP", "ALTER"}


def materialized_tree(depth):
    tb = make_ancestor_testbed(full_binary_trees(1, depth))
    tb.materialize("ancestor")
    return tb


def leaf_batch(depth, tag):
    """Four new edges hanging off the first four leaves of the tree."""
    first_leaf = 2 ** (depth - 1)
    return [
        (tree_node("t", first_leaf + k), f"{tag}x{k}") for k in range(4)
    ]


def insert_and_delete(tb, rows):
    tb.load_facts("parent", rows)
    assert tb.maintenance_log[-1].strategy == "delta"
    tb.delete_facts("parent", rows)
    assert tb.maintenance_log[-1].strategy == "dred"


def vm_steps(tb, action):
    """SQLite virtual-machine steps ``action`` takes (in 100s)."""
    steps = [0]

    def tick():
        steps[0] += 1
        return 0

    connection = tb.database._connection
    connection.set_progress_handler(tick, 100)
    try:
        action()
    finally:
        connection.set_progress_handler(None, 0)
    return steps[0]


class TestWorkFollowsTheDelta:
    def test_leaf_batch_cost_does_not_track_the_view(self):
        steps, views = {}, {}
        for depth in (7, 9):
            tb = materialized_tree(depth)
            try:
                insert_and_delete(tb, leaf_batch(depth, "warm"))
                views[depth] = tb.views.tuple_count("ancestor")
                rows = leaf_batch(depth, "measured")
                steps[depth] = vm_steps(tb, lambda: insert_and_delete(tb, rows))
                assert tb.views.tuple_count("ancestor") == views[depth]
            finally:
                tb.close()
        assert views[9] > 4 * views[7]
        assert steps[9] < 2 * steps[7], steps


class TestWarmWritesAreDdlFree:
    def test_no_ddl_and_only_prepared_statements(self):
        tb = materialized_tree(5)
        try:
            insert_and_delete(tb, leaf_batch(5, "warm"))
            statistics = tb.database.statistics
            statistics.reset()
            insert_and_delete(tb, leaf_batch(5, "measured"))
            total = statistics.total
            assert not DDL & set(total.by_kind), total.by_kind
            assert total.cache_misses == 0
            assert total.cache_hits == total.statements > 0
        finally:
            tb.close()
