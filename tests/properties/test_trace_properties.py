"""Property tests: the span tree is well-formed for any rulegen query.

Over randomly shaped synthetic rule bases (the paper's R_s / R_rs
workload generator), a traced update + query must produce a trace where

* every counted statement is attributed to exactly one span — summing the
  per-span direct counts over the whole forest reproduces both the
  tracer's flat statement stream and the Statistics totals; and
* time is conserved down the tree — every span lasts at least as long as
  the sum of its children (within scheduler jitter); and
* there is one clock — every compilation and update timing component *is*
  the duration of the same-named child of the ``compile`` / ``update``
  span, the same float.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Testbed, TestbedConfig
from repro.km.policy import DEFAULT_OPTIMIZE
from repro.workloads.rulegen import make_rule_base

rule_base_shapes = st.tuples(
    st.integers(min_value=1, max_value=30),  # total rules R_s
    st.integers(min_value=1, max_value=30),  # relevant rules R_rs
).filter(lambda shape: shape[1] <= shape[0])

# Tolerance for span-vs-children wall-clock comparisons: perf_counter is
# monotonic and children are strictly nested, so only float rounding can
# make the sums disagree.
EPSILON = 1e-9


def run_traced(total_rules, relevant_rules, optimize=DEFAULT_OPTIMIZE):
    rule_base = make_rule_base(total_rules, relevant_rules)
    with Testbed(TestbedConfig(trace=True)) as testbed:
        # Schema bootstrap inside __init__ runs before the tracer is
        # installed; reset Statistics so both sinks watch the same window.
        testbed.database.statistics.reset()
        for base in rule_base.base_predicates:
            testbed.define_base_relation(base, ("TEXT", "TEXT"))
        testbed.workspace.add_clauses(rule_base.program.rules)
        update = testbed.update_stored_dkb()
        testbed.load_facts(
            rule_base.query_module.base_predicate,
            [("a", "b"), ("b", "c"), ("c", "d")],
        )
        query = testbed.query(rule_base.query_text(), optimize=optimize)
        counted = testbed.database.statistics.total.statements
        return testbed.disable_tracing(), counted, update, query


def only(spans, name):
    (span,) = [span for span in spans if span.name == name]
    return span


def assert_timings_are_span_durations(timings, span):
    """Each component equals its child span's duration; one that did not
    run (no child span) is zero."""
    children = {child.name: child for child in span.children}
    assert set(children) <= set(timings), set(children) - set(timings)
    for name, seconds in timings.items():
        expected = children[name].duration if name in children else 0.0
        assert seconds == expected, name


def assert_one_clock(tracer, update, query):
    assert_timings_are_span_durations(update.timings, only(tracer.roots, "update"))
    query_span = only(tracer.roots, "query")
    compile_span = only(query_span.children, "compile")
    assert_timings_are_span_durations(query.compilation.timings, compile_span)
    assert query.execution_seconds == only(query_span.children, "execute").duration


@settings(max_examples=15, deadline=None)
@given(rule_base_shapes)
def test_every_statement_is_attributed_to_exactly_one_span(shape):
    tracer, counted, _, _ = run_traced(*shape)
    spans = [span for root in tracer.roots for span in root.iter_spans()]
    attributed = sum(span.statements for span in spans)
    assert attributed == len(tracer.statements) == counted
    assert sum(span.statement_seconds for span in spans) > 0


@settings(max_examples=15, deadline=None)
@given(rule_base_shapes)
def test_span_duration_covers_its_children(shape):
    tracer, *_ = run_traced(*shape)
    assert tracer.roots, "a traced run must record spans"
    for root in tracer.roots:
        for span in root.iter_spans():
            assert span.end is not None, span.name
            child_total = sum(child.duration for child in span.children)
            assert span.duration >= child_total - EPSILON, span.name


@settings(max_examples=15, deadline=None)
@given(rule_base_shapes, st.sampled_from([DEFAULT_OPTIMIZE, False]))
def test_every_timing_is_its_span_duration(shape, optimize):
    tracer, _, update, query = run_traced(*shape, optimize=optimize)
    assert_one_clock(tracer, update, query)


def test_unrewritten_compile_reports_its_optimize_span():
    # The optimize span runs (and lasts) even when no rewrite is applied,
    # so its duration is the component, not a zero.
    tracer, _, update, query = run_traced(12, 6, optimize=False)
    assert not query.compilation.optimized
    assert query.compilation.timings.optimize > 0
    assert_one_clock(tracer, update, query)
