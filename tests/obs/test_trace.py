"""Unit tests for spans and the tracer: nesting, attribution, untraced spans."""

import pytest

from repro.dbms.engine import Database
from repro.obs.trace import DEFAULT_PHASE, Span, StatementRecord, Tracer


def record(sql="SELECT 1", kind="SELECT", seconds=0.001, **overrides):
    fields = dict(phase="test", sql=sql, kind=kind, seconds=seconds)
    fields.update(overrides)
    return StatementRecord(**fields)


@pytest.fixture()
def traced():
    """An in-memory database with a fresh tracer installed."""
    tracer = Tracer()
    with Database(":memory:") as database:
        database.set_tracer(tracer)
        yield database, tracer


def assert_stack_empty(database, tracer):
    """No span is left open: the next span opened is a new root."""
    assert database.statistics.current_phase == DEFAULT_PHASE
    with database.span("probe") as probe:
        pass
    assert tracer.last_root is probe


class TestSpanTree:
    def test_nesting_builds_a_tree(self, traced):
        database, tracer = traced
        with database.span("query") as query:
            with database.span("compile") as compile_span:
                with database.span("parse"):
                    pass
            with database.span("execute"):
                pass
        assert tracer.roots == [query]
        assert [child.name for child in query.children] == ["compile", "execute"]
        assert [child.name for child in compile_span.children] == ["parse"]
        assert tracer.last_root is query
        assert_stack_empty(database, tracer)

    def test_span_attributes_and_set(self, traced):
        database, _ = traced
        with database.span("clique", category="lfp", predicate="ancestor") as span:
            span.set("iterations", 4)
        assert span.category == "lfp"
        assert span.attributes == {"predicate": "ancestor", "iterations": 4}

    def test_plan_path_reflects_open_stack(self, traced):
        database, tracer = traced
        database.execute("CREATE TABLE t (x INTEGER)")
        with database.span("query"):
            with database.span("compile"):
                database.execute("SELECT x FROM t")
        (plan,) = [p for p in tracer.plans.plans.values() if p.sql.startswith("SELECT")]
        assert plan.span == "query/compile"

    def test_durations_are_closed_and_nested(self, traced):
        database, _ = traced
        with database.span("outer") as outer:
            with database.span("inner") as inner:
                pass
        assert outer.end is not None and inner.end is not None
        assert inner.start >= outer.start
        assert inner.end <= outer.end
        assert outer.duration >= inner.duration

    def test_iter_spans_is_depth_first_preorder(self, traced):
        database, tracer = traced
        with database.span("a"):
            with database.span("b"):
                with database.span("c"):
                    pass
            with database.span("d"):
                pass
        names = [span.name for span in tracer.roots[0].iter_spans()]
        assert names == ["a", "b", "c", "d"]

    def test_span_survives_exceptions(self, traced):
        database, tracer = traced
        try:
            with database.span("failing", phase="boom"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert tracer.roots[0].end is not None
        assert_stack_empty(database, tracer)


class TestStatementAttribution:
    def test_statement_counts_go_to_innermost_span(self, traced):
        database, tracer = traced
        with database.span("query") as query:
            database.execute("SELECT 0")
            with database.span("execute") as execute:
                database.execute("SELECT 1")
                database.execute("SELECT 2")
        assert query.statements == 1
        assert execute.statements == 2
        assert execute.statement_seconds == sum(
            r.seconds for r in tracer.statements[1:]
        )
        # Summing direct counts over the tree gives the total.
        assert sum(s.statements for s in query.iter_spans()) == 3

    def test_ambient_span_catches_statements_outside_any_span(self):
        tracer = Tracer()
        tracer.on_statement(record())
        tracer.on_statement(record())
        assert len(tracer.roots) == 1
        ambient = tracer.roots[0]
        assert ambient.name == "(ambient)"
        assert ambient.statements == 2
        assert ambient.end is not None and ambient.end >= ambient.start

    def test_keep_statements_flag(self):
        keeping = Tracer()
        keeping.on_statement(record())
        assert len(keeping.statements) == 1

        dropping = Tracer(keep_statements=False)
        dropping.on_statement(record())
        assert dropping.statements == []
        assert dropping.roots[0].statements == 1  # still counted

    def test_metrics_updated_from_statement_stream(self):
        tracer = Tracer()
        tracer.on_statement(record(kind="SELECT", rows_fetched=7, cache_hit=True))
        tracer.on_statement(record(kind="INSERT", rows_changed=3, cache_hit=False))
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["dbms.statements"] == 2
        assert counters["dbms.statements.select"] == 1
        assert counters["dbms.statements.insert"] == 1
        assert counters["dbms.rows_fetched"] == 7
        assert counters["dbms.rows_changed"] == 3
        assert counters["dbms.statement_cache.hits"] == 1
        assert counters["dbms.statement_cache.misses"] == 1
        assert tracer.metrics.snapshot()["histograms"]["dbms.statement_seconds"][
            "count"
        ] == 2

    def test_plan_capture_through_real_database(self):
        tracer = Tracer()
        with Database(":memory:") as database:
            database.set_tracer(tracer)
            database.execute("CREATE TABLE t (x INTEGER)")
            database.execute("INSERT INTO t VALUES (1)")
            with database.span("query"):
                database.execute("SELECT x FROM t WHERE x = ?", (1,))
        assert tracer.plans is not None
        captured = list(tracer.plans.plans.values())
        select_plans = [p for p in captured if p.sql.startswith("SELECT")]
        assert select_plans, captured
        assert select_plans[0].span == "query"
        assert select_plans[0].detail  # EXPLAIN QUERY PLAN returned rows

    def test_plan_capture_reads_are_not_counted(self):
        tracer = Tracer()
        with Database(":memory:") as database:
            database.set_tracer(tracer)
            database.execute("CREATE TABLE t (x INTEGER)")
            database.execute("SELECT x FROM t")
            counted = database.statistics.total.statements
        # Only the two application statements were counted; the EXPLAIN
        # probe went through Database.observe and left no trace.
        assert counted == 2
        assert len(tracer.statements) == 2
        assert not any("EXPLAIN" in s.sql.upper() for s in tracer.statements)

    def test_clear_keeps_metrics_and_plans(self, traced):
        database, tracer = traced
        with database.span("query"):
            database.execute("SELECT 1")
        plans = tracer.plans
        tracer.clear()
        assert tracer.roots == []
        assert tracer.statements == []
        assert tracer.plans is plans
        assert tracer.metrics.snapshot()["counters"]["dbms.statements"] == 1
        assert_stack_empty(database, tracer)


class TestUntracedSpans:
    def test_untraced_span_times_its_region_and_keeps_nothing(self, database):
        assert database.tracer is None
        with database.span("anything", category="c", attr=1) as span:
            database.execute("SELECT 1")
        assert isinstance(span, Span)
        assert span.end is not None and span.end >= span.start
        assert span.duration == span.end - span.start
        assert span.children == [] and span.statements == 0

    def test_span_phase_attributes_statements_and_is_inherited(self, database):
        database.statistics.reset()
        with database.span("outer", phase="p") as outer:
            with database.span("inner") as inner:
                database.execute("SELECT 1")
            with database.phase("q"):
                database.execute("SELECT 2")
        assert (outer.phase, inner.phase) == ("p", "p")
        assert database.statistics.phase("p").statements == 1
        assert database.statistics.phase("q").statements == 1

    def test_traced_and_untraced_spans_are_one_type(self, traced, database):
        traced_database, _ = traced
        with traced_database.span("s") as span, database.span("t") as other:
            assert isinstance(span, Span) and isinstance(other, Span)
