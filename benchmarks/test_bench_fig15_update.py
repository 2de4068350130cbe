"""Test 8 (Figure 15): stored-D/KB update time vs rule-base size.

Paper findings reproduced here:

* updates are much faster without compiled rule storage structures (the
  paper reports almost an order of magnitude) — source-form storage skips
  the relevant-rule extraction and the incremental closure maintenance;
* ``t_u`` is relatively insensitive to the total number of stored rules
  ``R_s`` in *both* configurations, because the incremental algorithm only
  touches the affected portion of the closure.
"""

from __future__ import annotations

from statistics import median

from repro.bench.specs import FIG15

from .conftest import by, p50

STORED_RULES = (9, 45, 90, 135, 189)


def test_fig15_update_time(run_spec):
    rows = run_spec(FIG15, stored_rules=STORED_RULES, workspace_rules=1, repetitions=5)

    compiled = by(rows, "stored_rules", "compiled")
    source_only = by(rows, "stored_rules", "source_only")
    assert set(compiled) == set(source_only) == set(STORED_RULES)

    # Source-only updates are much cheaper at every R_s.
    ratios = [p50(compiled[r]) / p50(source_only[r]) for r in STORED_RULES]
    assert all(r > 1.5 for r in ratios), ratios
    assert median(ratios) > 3.0, ratios

    # Insensitive to R_s (21x spread in R_s, bounded spread in t_u).
    for curve in (compiled, source_only):
        seconds = [p50(curve[r]) for r in STORED_RULES]
        assert max(seconds) < 6 * min(seconds), seconds

    # Storing the source form is a small part of even the compiled update.
    for row in compiled.values():
        assert row["share"]["store"] < 50.0
