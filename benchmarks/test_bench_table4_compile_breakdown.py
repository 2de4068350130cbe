"""Test 3 (Table 4): compilation-time breakdown.

Paper findings reproduced here:

* as ``R_rs`` grows from 1 to 20 ``t_extract`` grows with it (the paper's
  share rises 25% -> 67%; here it rose 25% -> 42% in the committed run,
  and only the absolute time is asserted);
* the generate/compile/link component is a significant contributor
  (the paper notes it is "very much compiler dependent").
"""

from __future__ import annotations

from repro.bench.specs import TABLE4

from .conftest import by

RELEVANT_RULES = (1, 7, 20)


def test_table4_compile_breakdown(run_spec):
    rows = run_spec(TABLE4, relevant_rules=RELEVANT_RULES, total_rules=189, repetitions=7)

    by_relevant = by(rows, "relevant_rules")
    # Extract time rises with R_rs: ~0.15 ms at 1 rule, ~2.3 ms at 20.
    assert by_relevant[20]["p50"]["extract"] > 5 * by_relevant[1]["p50"]["extract"]
    # Generate-compile-link is a real contributor for the small query.
    assert by_relevant[1]["share"]["gencompile"] > 10.0
    # Components cover the whole compilation (no unaccounted time).
    for row in rows:
        assert abs(sum(row["share"].values()) - 100.0) < 1e-6
