"""Test 7 (Figures 13 and 14): the magic-sets selectivity crossover.

Paper findings reproduced here:

* without optimization ``t_e`` is insensitive to query selectivity (the
  whole closure is computed regardless); with magic sets it grows with
  selectivity;
* there is a crossover selectivity beyond which optimization *costs* time —
  at high selectivity in both strategies, and no lower for naive than for
  semi-naive (the paper reports ~85% naive vs ~72% semi-naive: optimization
  keeps paying longer where more redundant work is saved);
* at very low selectivity against a large relation, optimization wins by
  orders of magnitude;
* Figure 14: of the two LFP computations of the optimized plan, the
  modified-rules evaluation is the selectivity-sensitive one.
"""

from __future__ import annotations

from repro.bench.specs import BLOWUP, FIG13

from .conftest import p50

DEPTH = 10
BLOWUP_DEPTH = 13


def find_crossover(rows, strategy):
    """Lowest selectivity at which optimization stops paying for ``strategy``.

    Compares the optimized and unoptimized medians point by point and
    returns the selectivity of the first point, in increasing selectivity
    order, where the optimized run is slower; ``None`` when optimization
    wins everywhere.
    """
    mine = [row for row in rows if row["point"]["strategy"] == strategy]
    plain = {row["point"]["level"]: row for row in mine if row["lever"] == "plain"}
    optimized = [row for row in mine if row["lever"] == "magic"]
    for row in sorted(optimized, key=lambda row: row["counts"]["selectivity"]):
        baseline = plain.get(row["point"]["level"])
        if baseline is not None and p50(row) > p50(baseline):
            return row["counts"]["selectivity"]
    return None


def test_fig13_crossover(run_spec):
    rows = run_spec(FIG13, depth=DEPTH)
    for strategy in ("naive", "seminaive"):
        crossover = find_crossover(rows, strategy)
        pretty = f"{crossover:.2f}" if crossover is not None else "none observed"
        print(f"crossover selectivity ({strategy}): {pretty}")

    for strategy in ("naive", "seminaive"):
        strategy_rows = [row for row in rows if row["point"]["strategy"] == strategy]
        plain = {r["point"]["level"]: r for r in strategy_rows if r["lever"] == "plain"}
        optimized = {r["point"]["level"]: r for r in strategy_rows if r["lever"] == "magic"}

        def selectivity(row):
            return row["counts"]["selectivity"]

        # Unoptimized: flat across two decades of selectivity.
        plain_seconds = [p50(row) for row in plain.values()]
        assert max(plain_seconds) < 4 * min(plain_seconds), plain_seconds

        # Optimized: clearly cheaper at the lowest selectivity...
        lowest = min(optimized.values(), key=selectivity)
        assert p50(lowest) < 0.6 * p50(plain[lowest["point"]["level"]])

        # ...growing with selectivity (highest point much above lowest).
        highest = max(optimized.values(), key=selectivity)
        assert p50(highest) > 2 * p50(lowest)

        # A crossover exists, at high selectivity.
        crossover = find_crossover(rows, strategy)
        assert crossover is not None, f"no crossover for {strategy}"
        assert crossover > 0.3, crossover

        # Identical answers with and without optimization.
        for level, row in optimized.items():
            assert row["counts"]["answers"] == plain[level]["counts"]["answers"]

    # Naive's crossover is no lower than semi-naive's.
    naive_crossover = find_crossover(rows, "naive")
    seminaive_crossover = find_crossover(rows, "seminaive")
    assert naive_crossover >= seminaive_crossover - 1e-9

    # Figure 14: the modified-rules LFP is the selectivity-sensitive one.
    optimized_semi = sorted(
        (
            row
            for row in rows
            if row["lever"] == "magic" and row["point"]["strategy"] == "seminaive"
        ),
        key=lambda row: row["counts"]["selectivity"],
    )
    modified = [p50(row, "modified_lfp") for row in optimized_semi]
    assert modified[-1] > 2 * modified[0], modified


def test_fig13_low_selectivity_blowup(run_spec):
    plain, optimized = run_spec(BLOWUP, depth=BLOWUP_DEPTH)
    ratio = p50(plain) / p50(optimized)
    facts = plain["counts"]
    print(
        f"low-selectivity blowup (depth {BLOWUP_DEPTH}, D={facts['total_facts']}, "
        f"D_rel={facts['relevant_facts']}): plain {p50(plain) * 1000:.1f} ms, "
        f"magic {p50(optimized) * 1000:.1f} ms, ratio {ratio:.0f}x"
    )
    assert plain["counts"]["answers"] == optimized["counts"]["answers"]
    # The paper reports "several orders of magnitude"; we require >= 20x.
    assert ratio > 20, ratio
