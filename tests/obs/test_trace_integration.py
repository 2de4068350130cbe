"""End-to-end trace of the fig-12 ancestor workload.

The acceptance bar for the observability layer: one traced query must show
every compile phase, one span per LFP iteration carrying its delta
cardinality, and at least one captured EXPLAIN QUERY PLAN.
"""

import pytest

from repro import LfpStrategy, Testbed, TestbedConfig
from repro.workloads.queries import (
    ANCESTOR_RULES,
    ancestor_query,
    load_parent_relation,
)
from repro.workloads.relations import full_binary_trees, tree_node

COMPILE_PHASES = {
    "setup",
    "extract",
    "readdict",
    "semantic",
    "optimize",
    "eorder",
    "gencompile",
}


@pytest.fixture(scope="module")
def traced():
    with Testbed(TestbedConfig(trace=True)) as testbed:
        testbed.define(ANCESTOR_RULES)
        load_parent_relation(testbed, full_binary_trees(1, 5))
        # Per-iteration spans are the loop's: pin the semi-naive strategy,
        # over the one unrewritten clique.
        result = testbed.query(
            ancestor_query(tree_node("t", 1)),
            optimize=False,
            strategy=LfpStrategy.SEMINAIVE,
        )
        yield testbed.last_query_span, testbed.disable_tracing(), result


def test_every_compile_phase_has_a_span(traced):
    root, _, _ = traced
    (compile_span,) = [c for c in root.children if c.name == "compile"]
    assert {child.name for child in compile_span.children} == COMPILE_PHASES
    assert all(child.end is not None for child in compile_span.children)


def test_one_iteration_span_per_lfp_iteration_with_delta(traced):
    root, _, result = traced
    (execute,) = [c for c in root.children if c.name == "execute"]
    (clique,) = [c for c in execute.children if c.name.startswith("clique:")]
    iterations = [c for c in clique.children if c.name == "iteration"]
    expected = result.execution.iterations_by_clique["ancestor"]
    assert len(iterations) == expected
    assert [span.attributes["iteration"] for span in iterations] == list(
        range(1, expected + 1)
    )
    deltas = [span.attributes["delta_tuples"] for span in iterations]
    assert all(delta >= 0 for delta in deltas)
    assert deltas[-1] == 0  # the fixpoint round discovers nothing new
    # Delta cardinalities over all rounds add up to the derived relation.
    assert sum(deltas) == result.execution.tuples_by_predicate["ancestor"]


def test_statement_attribution_is_total(traced):
    root, tracer, _ = traced
    attributed = sum(
        span.statements for r in tracer.roots for span in r.iter_spans()
    )
    assert attributed == len(tracer.statements) > 0


def test_plans_and_metrics_captured(traced):
    _, tracer, _ = traced
    assert tracer.plans is not None and len(tracer.plans) >= 1
    assert any(
        plan.span.startswith("query/") for plan in tracer.plans.plans.values()
    )
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["dbms.statements"] == len(tracer.statements)
    assert counters["lfp.iterations"] >= 1
