"""Workload-diversity bench: the four relation types of the paper's §5.2.

The paper's execution tests all use trees and note "the results will
obviously be different for other queries and data types".  This bench runs
the bound ancestor query over each characterised relation type — lists,
full binary trees, DAGs, and cyclic graphs — with and without magic sets,
verifying that the machinery is workload-agnostic:

* answers always equal graph reachability (including on cycles);
* magic sets wins on every type at low selectivity;
* iteration counts track each type's path structure (lists are the deep
  extreme, trees the shallow one).
"""

from __future__ import annotations

from repro.bench.specs import WORKLOAD_TYPES

from .conftest import by, p50


def test_ancestor_across_relation_types(run_spec):
    # The spec's relation types and roots are this bench's workloads; its
    # measure checks every answer set against graph reachability.
    rows = run_spec(WORKLOAD_TYPES, repetitions=3)
    plain = by(rows, "type", "plain")
    magic = by(rows, "type", "magic")

    # Correct on every type (checked in the measure), and the deep list
    # workload needs far more LFP iterations than the shallow tree.
    assert plain["list"]["counts"]["iterations"] > 4 * plain["tree"]["counts"]["iterations"]

    # The cyclic workload terminated (it returned) and found a full cycle's
    # reachability.
    assert plain["cyclic"]["counts"]["answers"] > 0

    # Magic pays on every relation type at these selective roots.
    for name in plain:
        assert p50(magic[name]) < p50(plain[name]), (name, p50(plain[name]), p50(magic[name]))
