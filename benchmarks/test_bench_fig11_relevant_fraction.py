"""Test 4 (Figure 11): execution time vs the relevant-fact fraction D_rel/D.

Paper findings reproduced here (semi-naive, no optimization):

* with the relation fixed (D constant), ``t_e`` is insensitive to ``D_rel``
  — without magic sets the whole transitive closure is computed no matter
  how little of it the query needs;
* with the query subtree fixed (D_rel constant) and the relation growing,
  ``t_e`` increases with ``D``.
"""

from __future__ import annotations

from repro.bench.specs import FIG11

from .conftest import p50

DEPTH = 9
GROWING_DEPTHS = (6, 7, 8, 9)


def test_fig11_relevant_fraction(run_spec):
    rows = run_spec(
        FIG11,
        depth=DEPTH,
        growing_depths=GROWING_DEPTHS,
        fixed_subtree_depth=5,
        repetitions=3,
    )
    fixed_d = [row for row in rows if row["point"]["series"] == "fixed_d"]
    fixed_rel = [row for row in rows if row["point"]["series"] == "fixed_rel"]

    # Series (a): D fixed — flat within a loose noise bound despite D_rel
    # spanning two orders of magnitude.
    seconds = [p50(row) for row in fixed_d]
    assert max(seconds) < 3 * min(seconds), seconds
    selectivities = [row["counts"]["selectivity"] for row in fixed_d]
    assert max(selectivities) / min(selectivities) > 50

    # Series (b): D_rel fixed — time grows as the relation grows.
    facts = [row["counts"] for row in fixed_rel]
    assert all(f["relevant_facts"] == facts[0]["relevant_facts"] for f in facts)
    assert facts[-1]["total_facts"] > 4 * facts[0]["total_facts"]
    assert p50(fixed_rel[-1]) > 1.5 * p50(fixed_rel[0]), [
        (row["counts"]["total_facts"], p50(row)) for row in fixed_rel
    ]

    # Both series answer correctly sized results.
    assert all(
        row["counts"]["answers"] == row["counts"]["relevant_facts"] for row in fixed_d
    )
