"""Test 9 (Table 8): stored-D/KB update-time breakdown.

Paper findings reproduced here (configurations (R_w=36, R_s=189) and
(R_w=1, R_s=189)):

* extracting the relevant rules is a significant component of ``t_u``, and
  its *percentage* contribution is largest for small workspaces (81% at
  R_w=1 vs 42% at R_w=36 in the paper);
* storing the source form of the rules contributes only a small share.
"""

from __future__ import annotations

from repro.bench.specs import TABLE8

from .conftest import by, p50

CONFIGURATIONS = ((36, 189), (1, 189))


def test_table8_update_breakdown(run_spec):
    rows = run_spec(TABLE8, configurations=CONFIGURATIONS, repetitions=5)

    by_workspace = by(rows, "workspace_rules")
    large, small = by_workspace[36], by_workspace[1]

    # A bigger workspace means a bigger absolute update time.
    assert p50(large) > p50(small)

    # Extraction's share shrinks as the workspace grows (more of the time
    # goes to closure maintenance and type checking of the new rules).
    assert small["share"]["extract"] > large["share"]["extract"]
    # Extraction is a significant component of the small-workspace update.
    assert small["share"]["extract"] > 20.0

    # Source-form storage stays a minor share in both configurations.
    for row in rows:
        assert row["share"]["store"] < 40.0, row
