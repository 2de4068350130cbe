"""Chrome-trace JSON round-trip and plain-text span tree rendering."""

import json

from repro.dbms.engine import Database
from repro.obs.export import chrome_trace_events, render_span_tree, write_chrome_trace
from repro.obs.trace import StatementRecord, Tracer


def build_tracer():
    tracer = Tracer()
    with Database(":memory:") as database:
        database.set_tracer(tracer)
        with database.span("query", text="?- a(X)."):
            with database.span("compile", category="compile"):
                with database.span("parse", category="compile"):
                    pass
            with database.span("execute", category="execute") as execute:
                tracer.on_statement(
                    StatementRecord(
                        phase="lfp", sql="SELECT 1", kind="SELECT", seconds=0.002
                    ),
                    [execute],
                )
    return tracer


class TestChromeEventList:
    def test_empty_forest_yields_no_events(self):
        assert chrome_trace_events([]) == []

    def test_events_are_preorder_with_consistent_intervals(self):
        tracer = build_tracer()
        events = chrome_trace_events(tracer.roots, epoch=tracer.epoch)
        assert [e["name"] for e in events] == ["query", "compile", "parse", "execute"]
        # DFS pre-order means ts is monotonically non-decreasing.
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)
        assert all(e["ph"] == "X" for e in events)
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)
        # Children nest inside their parent's interval (µs float tolerance).
        query, compile_event, parse, execute = events
        for child in (compile_event, execute):
            assert child["ts"] >= query["ts"] - 1e-6
            assert child["ts"] + child["dur"] <= query["ts"] + query["dur"] + 1e-6
        assert parse["ts"] + parse["dur"] <= (
            compile_event["ts"] + compile_event["dur"] + 1e-6
        )

    def test_args_carry_attributes_and_statement_counts(self):
        tracer = build_tracer()
        events = {e["name"]: e for e in chrome_trace_events(tracer.roots)}
        assert events["query"]["args"]["text"] == "?- a(X)."
        assert events["execute"]["args"]["statements"] == 1
        assert events["execute"]["args"]["statement_seconds"] > 0
        assert events["compile"]["cat"] == "compile"
        assert events["query"]["cat"] == "span"  # fallback for empty category


class TestWriteChromeTrace:
    def test_round_trips_through_json(self, tmp_path):
        tracer = build_tracer()
        path = str(tmp_path / "nested" / "trace.json")
        written = write_chrome_trace(path, tracer, metadata={"query": "?- a(X)."})
        assert written == path
        with open(path, encoding="utf-8") as handle:
            payload = json.loads(handle.read())
        assert payload["displayTimeUnit"] == "ms"
        assert payload["metadata"] == {"query": "?- a(X)."}
        names = [event["name"] for event in payload["traceEvents"]]
        assert names == ["query", "compile", "parse", "execute"]
        timestamps = [event["ts"] for event in payload["traceEvents"]]
        assert timestamps == sorted(timestamps)

    def test_accepts_a_bare_span_forest(self, tmp_path):
        tracer = build_tracer()
        path = write_chrome_trace(str(tmp_path / "spans.json"), tracer.roots)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert len(payload["traceEvents"]) == 4
        assert "metadata" not in payload


class TestRenderSpanTree:
    def test_renders_indented_tree(self):
        tracer = build_tracer()
        text = render_span_tree(tracer)
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert lines[1].startswith("  compile")
        assert lines[2].startswith("    parse")
        assert lines[3].startswith("  execute")
        assert "stmts=1" in lines[3]
        assert "text=?- a(X)." in lines[0]
        assert "ms" in lines[0]

    def test_accepts_single_span(self):
        tracer = build_tracer()
        assert render_span_tree(tracer.last_root).startswith("query")

    def test_empty_tracer_fallback(self):
        assert render_span_tree(Tracer()) == "(no spans recorded)"
