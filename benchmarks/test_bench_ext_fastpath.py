"""Extension bench: the fast-path DBMS layer A/B (PR 1 tentpole).

The paper's Test 6 attributes most LFP execution cost to statements the
seed re-prepares and re-scans every iteration: temp-table CREATE/DROP, full
RHS SELECTs, and EXCEPT/IN set-difference probes.  The fast-path layer
attacks exactly those — a prepared-statement cache, per-iteration
transaction batching with stable scratch relations, and advised indexes on
the derived relations' join columns.

This bench runs the fig-12 semi-naive ancestor workload with the layer off
(seed behaviour) and on, and asserts the tentpole acceptance criteria:
>= 1.3x wall-clock speedup at the largest seed size, identical answers, and
statement-cache hit/miss counters surfaced through ``Statistics``.
"""

from __future__ import annotations

import os

from repro.bench import (
    format_fastpath,
    run_fastpath_ab,
    write_bench_json,
    write_trace_json,
)

DEPTH = 9
# Quick mode (CI smoke): fewer levels and repetitions, relaxed assertions —
# the job only proves the A/B harness runs end to end.
QUICK = bool(os.environ.get("BENCH_QUICK"))
LEVELS = (1, 4) if QUICK else (1, 2, 4, 6, 8)
REPETITIONS = 1 if QUICK else 5


def _trace_ancestor_query():
    """One traced fig-12 ancestor query; returns the detached tracer.

    The resulting span tree (compile phases, one span per LFP iteration
    with delta cardinalities, captured query plans) ships with the bench
    reports as a CI artifact.
    """
    from repro import LfpStrategy, Testbed, TestbedConfig
    from repro.workloads.queries import (
        ANCESTOR_RULES,
        ancestor_query,
        load_parent_relation,
    )
    from repro.workloads.relations import full_binary_trees, tree_node

    with Testbed(TestbedConfig(trace=True)) as testbed:
        testbed.define(ANCESTOR_RULES)
        load_parent_relation(testbed, full_binary_trees(1, 5 if QUICK else DEPTH))
        testbed.query(
            ancestor_query(tree_node("t", 1)),
            optimize=False,
            strategy=LfpStrategy.SEMINAIVE,
        )
        return testbed.tracer


def test_fastpath_ab_speedup(run_once):
    points = run_once(run_fastpath_ab, DEPTH, LEVELS, REPETITIONS)
    print()
    print(format_fastpath(points))

    report_dir = os.environ.get("BENCH_REPORT_DIR")
    if report_dir:
        write_bench_json(
            os.path.join(report_dir, "BENCH_fastpath.json"),
            "fastpath_ab",
            points,
            depth=DEPTH,
            repetitions=REPETITIONS,
            quick=QUICK,
        )
        write_trace_json(
            os.path.join(report_dir, "TRACE_fastpath.json"),
            _trace_ancestor_query(),
            "fastpath_ancestor_trace",
            depth=DEPTH,
            quick=QUICK,
        )

    by_label = {p.label: p for p in points}
    largest = by_label["level-1"]  # whole tree: the largest D_rel seed size

    # The fast run must serve statements from the cache, and the counters
    # must be visible through Statistics (they feed the table above).
    assert largest.cache_hits > 0, largest
    assert largest.cache_hits + largest.cache_misses > 0
    assert 0.0 < largest.cache_hit_rate <= 1.0

    # The A/B harness itself asserts identical answers; double-check the
    # answer counts came through.
    assert largest.answers == 2**DEPTH - 2

    if QUICK:
        # Smoke only: both paths completed and produced comparable numbers.
        assert largest.slow_seconds > 0 and largest.fast_seconds > 0
        return

    # Tentpole acceptance: >= 1.3x at the largest seed size.
    assert largest.speedup >= 1.3, (
        f"fast path speedup {largest.speedup:.2f}x at level-1, expected >= 1.3x"
    )
    # And the fast path should win (or at least not lose) broadly.
    winning = [p for p in points if p.speedup > 1.0]
    assert len(winning) >= len(points) - 1, [
        (p.label, round(p.speedup, 2)) for p in points
    ]
