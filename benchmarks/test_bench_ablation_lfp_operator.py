"""Ablation (paper conclusions 6-8): the in-DBMS LFP and TC operators.

The paper argues relational algebra alone is the wrong interface for LFP
evaluation and that the DBMS should provide (6) a generalized LFP operator
avoiding per-iteration temp tables, table copies, and full set-difference
termination checks, and (8) specialised operators such as transitive
closure.  This ablation quantifies both proposals on the shared ancestor
workload:

* the LFP operator — the plan fused into one recursive-CTE statement —
  beats the application-program semi-naive strategy;
* the specialised TC operator (a bare unary source-bound recursive CTE)
  beats the generalized operator in turn;
* the ordering naive < semi-naive < LFP operator < TC operator holds.
"""

from __future__ import annotations

from repro.bench.specs import ABLATION

from .conftest import p50

DEPTH = 10


def test_ablation_lfp_operator(run_spec):
    rows = run_spec(ABLATION, depth=DEPTH, repetitions=3)

    by_strategy = {row["lever"]: p50(row) for row in rows}
    naive = by_strategy["naive"]
    seminaive = by_strategy["seminaive"]
    operator = by_strategy["lfp_cte"]
    tc = by_strategy["tc_operator"]

    # All strategies agree on the answer set size (the runner also compares
    # the answer sets themselves).
    assert len({row["counts"]["answers"] for row in rows}) == 1

    # The paper's proposed interface improvements pay off, in order.
    assert seminaive < naive
    assert operator < seminaive
    assert tc < operator

    # The specialised operator is dramatically faster than the application
    # program — the headline motivation for conclusion 8.
    assert tc * 5 < seminaive
