"""Unit tests for the User Interface command interpreter."""

import pytest

from repro.ui.commands import CommandInterpreter


@pytest.fixture
def interpreter(testbed):
    return CommandInterpreter(testbed)


def loaded(interpreter):
    interpreter.execute("parent(a, b). parent(b, c).")
    interpreter.execute("anc(X, Y) :- parent(X, Y).")
    interpreter.execute("anc(X, Y) :- parent(X, Z), anc(Z, Y).")
    return interpreter


class TestClauseEntry:
    def test_fact_and_rule_reporting(self, interpreter):
        assert interpreter.execute("parent(a, b).") == "added 1 fact"
        assert interpreter.execute("p(X) :- parent(X, Y).") == "added 1 rule"
        assert (
            interpreter.execute("p(X) :- parent(X, Y). parent(c, d).")
            == "added 1 fact"
        )

    def test_duplicate_rule(self, interpreter):
        interpreter.execute("p(X) :- q(X, Y). q(a, b).")
        assert interpreter.execute("p(X) :- q(X, Y).") == "ok (nothing new)"

    def test_parse_error_reported(self, interpreter):
        response = interpreter.execute("p(X :- q(X).")
        assert response.startswith("error:")

    def test_comments_and_blank_lines_ignored(self, interpreter):
        assert interpreter.execute("") == ""
        assert interpreter.execute("% just a comment") == ""


class TestQueries:
    def test_query_lists_answers(self, interpreter):
        loaded(interpreter)
        response = interpreter.execute("?- anc(a, X).")
        assert "(b)" in response
        assert "(c)" in response
        assert "2 answers" in response

    def test_empty_answer(self, interpreter):
        loaded(interpreter)
        response = interpreter.execute("?- anc(c, X).")
        assert response == "0 answers"

    def test_timing_output(self, interpreter):
        loaded(interpreter)
        interpreter.execute(":timing on")
        response = interpreter.execute("?- anc(a, X).")
        assert "t_c =" in response
        assert "t_e =" in response

    def test_semantic_error_reported(self, interpreter):
        response = interpreter.execute("?- missing(X).")
        assert response.startswith("error:")


class TestCommands:
    def test_help(self, interpreter):
        assert ":strategy" in interpreter.execute(":help")

    def test_unknown_command(self, interpreter):
        assert "unknown command" in interpreter.execute(":bogus")

    def test_strategy_get_and_set(self, interpreter):
        assert "lfp_cte" in interpreter.execute(":strategy")
        assert "naive" in interpreter.execute(":strategy naive")
        assert interpreter.state.strategy.value == "naive"
        assert "unknown strategy" in interpreter.execute(":strategy turbo")

    def test_optimize_modes(self, interpreter):
        assert "auto" in interpreter.execute(":optimize")
        interpreter.execute(":optimize on")
        assert interpreter.state.optimize == "on"
        assert interpreter.state.optimize_value is True
        interpreter.execute(":optimize off")
        assert interpreter.state.optimize_value is False
        interpreter.execute(":optimize auto")
        assert interpreter.state.optimize_value == "auto"
        assert "usage" in interpreter.execute(":optimize sideways")

    def test_explain_follows_the_optimize_setting(self, interpreter):
        loaded(interpreter)
        assert "m_anc__bf" in interpreter.execute(":explain ?- anc(a, X).")
        interpreter.execute(":optimize off")
        assert "m_anc__bf" not in interpreter.execute(":explain ?- anc(a, X).")

    def test_workspace_listing(self, interpreter):
        assert interpreter.execute(":workspace") == "workspace is empty"
        loaded(interpreter)
        assert "anc(X, Y)" in interpreter.execute(":workspace")

    def test_update_and_stored(self, interpreter):
        loaded(interpreter)
        response = interpreter.execute(":update")
        assert "stored 2 rules" in response
        assert "2 rules" in interpreter.execute(":stored")
        assert interpreter.execute(":workspace") == "workspace is empty"

    def test_clear(self, interpreter):
        loaded(interpreter)
        interpreter.execute(":clear")
        assert interpreter.execute(":workspace") == "workspace is empty"

    def test_explain(self, interpreter):
        loaded(interpreter)
        response = interpreter.execute(":explain ?- anc(a, X).")
        assert "PROGRAM = link_program(SPEC)" in response
        assert "usage" in interpreter.execute(":explain")

    def test_load(self, interpreter, tmp_path):
        path = tmp_path / "rules.dkb"
        path.write_text("p(a, b). q(X) :- p(X, Y).")
        response = interpreter.execute(f":load {path}")
        assert "loaded 2 clauses" in response
        assert "missing" in interpreter.execute(":load /no/such/file") or (
            "error" in interpreter.execute(":load /no/such/file")
        )

    def test_materialize_refresh_views_dropview(self, interpreter):
        loaded(interpreter)
        assert interpreter.execute(":views") == "no materialized views"
        assert "usage" in interpreter.execute(":materialize")
        response = interpreter.execute(":materialize anc")
        assert response == "materialized anc: 3 tuples"
        listing = interpreter.execute(":views")
        assert "anc/2" in listing
        assert "3 tuples" in listing
        assert "fresh" in listing
        refreshed = interpreter.execute(":refresh anc")
        assert "refreshed anc: 3 tuples" in refreshed
        assert "refreshed anc" in interpreter.execute(":refresh")
        assert interpreter.execute(":dropview anc") == "dropped view anc"
        assert interpreter.execute(":views") == "no materialized views"

    def test_materialize_errors_reported(self, interpreter):
        loaded(interpreter)
        assert interpreter.execute(":materialize parent").startswith("error:")
        assert interpreter.execute(":refresh anc").startswith("error:")
        assert "usage" in interpreter.execute(":dropview")
        assert interpreter.execute(":refresh") == "no materialized views"

    def test_view_answer_timing_line(self, interpreter):
        loaded(interpreter)
        interpreter.execute(":materialize anc")
        interpreter.execute(":timing on")
        response = interpreter.execute("?- anc(a, X).")
        assert "answered from materialized view" in response
        assert "2 answers" in response

    def test_help_lists_view_commands(self, interpreter):
        text = interpreter.execute(":help")
        assert ":materialize" in text
        assert ":refresh" in text
        assert ":views" in text
        assert ":dropview" in text

    def test_quit(self, interpreter):
        assert interpreter.execute(":quit") == "bye"
        assert interpreter.finished

    def test_timing_toggle(self, interpreter):
        assert "on" in interpreter.execute(":timing")
        assert "off" in interpreter.execute(":timing")
        assert "usage" in interpreter.execute(":timing maybe")


class TestContinuation:
    def test_needs_continuation(self):
        assert CommandInterpreter.needs_continuation("p(X, Y) :-")
        assert CommandInterpreter.needs_continuation("p(X,")
        assert not CommandInterpreter.needs_continuation("p(a, b).")
        assert not CommandInterpreter.needs_continuation(":help")
        assert not CommandInterpreter.needs_continuation("")

    def test_multiline_clause(self, interpreter):
        interpreter.execute("parent(a, b).")
        response = interpreter.execute("anc(X, Y) :-\n    parent(X, Y).")
        assert response == "added 1 rule"


class TestTraceCommands:
    def test_trace_toggle_and_tree(self, interpreter):
        loaded(interpreter)
        assert interpreter.execute(":trace off") == "tracing off"
        assert "off" in interpreter.execute(":trace")
        assert interpreter.execute(":trace on") == "tracing on"
        assert "no traced query yet" in interpreter.execute(":trace")
        interpreter.execute("?- anc(a, X).")
        tree = interpreter.execute(":trace")
        assert tree.startswith("query")
        assert "compile" in tree and "execute" in tree
        assert interpreter.execute(":trace sideways") == "usage: :trace [on|off]"

    def test_stats_requires_tracing(self, interpreter):
        assert "tracing is off" in interpreter.execute(":stats")
        interpreter.execute(":trace on")
        loaded(interpreter)
        interpreter.execute("?- anc(a, X).")
        stats = interpreter.execute(":stats")
        assert "dbms.statements" in stats

    def test_help_lists_trace_commands(self, interpreter):
        text = interpreter.execute(":help")
        assert ":trace" in text
        assert ":stats" in text
