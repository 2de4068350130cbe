"""Test 1 (Figures 7 and 8): relevant-rule extraction time.

Paper findings reproduced here:

* ``t_extract`` is *insensitive* to the total number of stored rules ``R_s``
  (the compiled ``reachablepreds`` form plus indexes make extraction cost a
  function of what is extracted, not of what is stored);
* ``t_extract`` *increases* with the number of relevant rules ``R_rs``;
* extraction is a single SQL statement regardless of the rule-base size.
"""

from __future__ import annotations

from statistics import median

from repro.bench.specs import EXTRACT

from .conftest import p50

TOTAL_RULES = (60, 120, 240, 480)
RELEVANT_RULES = (1, 7, 20)


def test_fig07_08_extract_time(run_spec):
    rows = run_spec(
        EXTRACT, total_rules=TOTAL_RULES, relevant_rules=RELEVANT_RULES, repetitions=7
    )

    # Single-statement extraction, independent of R_s (exact, logical).
    assert all(row["counts"]["statements"] == 1 for row in rows)
    # Exactly the relevant rules come back, never more.
    assert all(
        row["counts"]["rules_extracted"] == row["point"]["relevant_rules"] for row in rows
    )

    # Insensitive to R_s: within each R_rs curve the spread over an 8x range
    # of R_s stays within a loose noise bound.
    for relevant in RELEVANT_RULES:
        curve = [p50(row) for row in rows if row["point"]["relevant_rules"] == relevant]
        assert max(curve) < 5 * min(curve), (
            f"t_extract should be flat in R_s for R_rs={relevant}: {curve}"
        )

    # Grows with R_rs: at each fixed R_s the R_rs=20 curve sits clearly
    # above the R_rs=1 curve.
    for total in TOTAL_RULES:
        small = median(
            p50(row)
            for row in rows
            if row["point"] == {"relevant_rules": 1, "total_rules": total}
        )
        large = median(
            p50(row)
            for row in rows
            if row["point"] == {"relevant_rules": 20, "total_rules": total}
        )
        assert large > 1.5 * small, (total, small, large)
