"""Test 6 (Table 5): where LFP evaluation time goes.

Paper findings reproduced here:

* evaluating the right-hand sides plus the termination check dominates LFP
  time for both strategies (95% naive / 85% semi-naive in the paper);
* naive evaluation's RHS-plus-termination time is a multiple of
  semi-naive's — the principal reason semi-naive wins Test 5;
* the temporary-table churn of the application-program implementation is a
  visible cost, motivating the paper's in-DBMS LFP operator proposal.
"""

from __future__ import annotations

from repro.bench.specs import TABLE5
from repro.runtime import PHASE_RHS_EVAL, PHASE_TEMP_TABLES, PHASE_TERMINATION

DEPTH = 10


def test_table5_lfp_breakdown(run_spec):
    rows = run_spec(TABLE5, depth=DEPTH, root_level=1)

    by_strategy = {row["lever"]: row for row in rows}
    naive = by_strategy["naive"]
    seminaive = by_strategy["seminaive"]

    # RHS evaluation + termination dominate for both strategies.
    for row in rows:
        eval_and_check = row["share"][PHASE_RHS_EVAL] + row["share"][PHASE_TERMINATION]
        assert eval_and_check > 50.0, (row["lever"], eval_and_check)

    # Naive's eval+check wall time is a multiple of semi-naive's.
    naive_work = naive["p50"][PHASE_RHS_EVAL] + naive["p50"][PHASE_TERMINATION]
    seminaive_work = seminaive["p50"][PHASE_RHS_EVAL] + seminaive["p50"][PHASE_TERMINATION]
    assert naive_work > 1.5 * seminaive_work, (naive_work, seminaive_work)

    # Temp-table churn is real, measurable overhead in both.
    for row in rows:
        assert row["p50"][PHASE_TEMP_TABLES] > 0.0
