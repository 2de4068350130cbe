"""Workload-diversity bench: the four relation types of the paper's §5.2.

The paper's execution tests all use trees and note "the results will
obviously be different for other queries and data types".  This bench runs
the bound ancestor query over each characterised relation type — lists,
full binary trees, DAGs, and cyclic graphs — with and without magic sets,
verifying that the machinery is workload-agnostic:

* answers always equal graph reachability (including on cycles);
* magic sets wins on every type at low selectivity;
* iteration counts track each type's path structure (lists are the deep
  extreme, trees the shallow one).
"""

from __future__ import annotations

from repro import LfpStrategy
from repro.bench import timed
from repro.workloads.queries import (
    ancestor_query,
    expected_ancestor_answers,
    make_ancestor_testbed,
)
from repro.workloads.relations import (
    full_binary_trees,
    lists,
    random_cyclic_graph,
    random_dag,
)

# Roots are chosen selective (a fraction of each relation is reachable), so
# magic sets is on the winning side of its crossover for every type.
WORKLOADS = {
    "list": (lists(4, 64), "l0_0"),
    "tree": (full_binary_trees(1, 8), "t4"),
    "dag": (random_dag(300, 8, fan_out=2, seed=3), "g0_0"),
    "cyclic": (random_cyclic_graph(260, 8, cycle_count=6, seed=3), "c0_0"),
}


def run_workload_sweep(repetitions: int = 3):
    """Measure plain vs magic ancestor on each relation type."""
    results = {}
    for name, (relation, root) in WORKLOADS.items():
        testbed = make_ancestor_testbed(relation)
        expected = expected_ancestor_answers(relation, root)
        measurements = {}
        for mode, optimize in (("plain", False), ("magic", True)):
            # Iteration counts are the loop's: pin the semi-naive strategy.
            compiled = testbed.compile_query(
                ancestor_query(root),
                optimize=optimize,
                strategy=LfpStrategy.SEMINAIVE,
            )
            run = timed(
                lambda: compiled.program.execute(
                    testbed.database, testbed.catalog
                ),
                repetitions,
            )
            assert set(run.value.rows) == expected, (name, mode)
            measurements[mode] = (
                run.seconds,
                run.value.total_iterations,
                len(run.value.rows),
            )
        testbed.close()
        results[name] = measurements
    return results


def test_ancestor_across_relation_types(run_once):
    results = run_once(run_workload_sweep, 3)
    print()
    print("Ancestor over the section 5.2 relation types")
    print(f"{'type':<8} {'plain ms':>9} {'magic ms':>9} {'iters':>6} {'answers':>8}")
    for name, measurements in results.items():
        plain_s, plain_iters, answers = measurements["plain"]
        magic_s, __, __ = measurements["magic"]
        print(
            f"{name:<8} {plain_s * 1000:>9.2f} {magic_s * 1000:>9.2f} "
            f"{plain_iters:>6} {answers:>8}"
        )

    # Correct on every type (asserted inside the sweep), and the deep list
    # workload needs far more LFP iterations than the shallow tree.
    assert results["list"]["plain"][1] > 4 * results["tree"]["plain"][1]

    # The cyclic workload terminated (it returned) and found a full cycle's
    # reachability.
    assert results["cyclic"]["plain"][2] > 0

    # Magic pays on every relation type at these selective roots.
    for name, measurements in results.items():
        plain_s = measurements["plain"][0]
        magic_s = measurements["magic"][0]
        assert magic_s < plain_s, (name, plain_s, magic_s)
