"""Test 3 (Table 4): compilation-time breakdown.

Paper findings reproduced here:

* as ``R_rs`` grows from 1 to 20 ``t_extract`` grows with it (the paper's
  share rises 25% -> 67%; here the semantic checks grow in step, so the
  *share* stays near 21-25% and only the absolute time is asserted);
* the generate/compile/link component is a significant contributor
  (the paper notes it is "very much compiler dependent").
"""

from __future__ import annotations

from repro.bench import format_table4, run_compile_breakdown

RELEVANT_RULES = (1, 7, 20)


def test_table4_compile_breakdown(run_once):
    rows = run_once(run_compile_breakdown, RELEVANT_RULES, 189, 7)
    print()
    print(format_table4(rows))

    by_relevant = {row.relevant_rules: row for row in rows}
    # Extract time rises with R_rs: ~0.15 ms at 1 rule, ~2.3 ms at 20.
    assert (
        by_relevant[20].components["extract"]
        > 5 * by_relevant[1].components["extract"]
    )
    # Generate-compile-link is a real contributor for the small query.
    assert by_relevant[1].percentage("gencompile") > 10.0
    # Components cover the whole compilation (no unaccounted time).
    for row in rows:
        assert abs(sum(row.percentage(c) for c in row.components) - 100.0) < 1e-6
