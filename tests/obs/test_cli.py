"""The ``python -m repro trace`` command-line entry point."""

import json

from repro.obs.cli import main

RULES = """
parent(ann, bob).
parent(bob, cal).
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
"""


def test_trace_cli_writes_chrome_trace(tmp_path, capsys):
    rules = tmp_path / "rules.dkb"
    rules.write_text(RULES)
    out = tmp_path / "trace.json"

    status = main(
        ["?- ancestor(ann, X).", "--load", str(rules), "--out", str(out)]
    )
    assert status == 0

    printed = capsys.readouterr().out
    assert "2 answers" in printed
    assert "query" in printed and "execute" in printed
    assert "dbms.statements" in printed
    assert f"wrote {out}" in printed

    payload = json.loads(out.read_text())
    assert payload["metadata"] == {
        "query": "?- ancestor(ann, X).",
        "strategy": "lfp_cte",
    }
    assert any(event["name"] == "query" for event in payload["traceEvents"])


def test_trace_cli_rejects_unknown_strategy(capsys):
    assert main(["?- a(X).", "--strategy", "psychic"]) == 2
    assert "unknown strategy" in capsys.readouterr().out


def test_trace_cli_mutual_clique_is_one_fused_statement(tmp_path, capsys):
    rules = tmp_path / "rules.dkb"
    rules.write_text(
        "parent(a, b). parent(b, c). parent(c, d).\n"
        "odd(X, Y) :- parent(X, Y).\n"
        "odd(X, Y) :- parent(X, Z), even(Z, Y).\n"
        "even(X, Y) :- parent(X, Z), odd(Z, Y).\n"
    )
    status = main(
        ["?- even(a, Y).", "--load", str(rules), "--out", str(tmp_path / "t.json")]
    )
    assert status == 0
    printed = capsys.readouterr().out
    assert "1 answers" in printed
    assert "fused" in printed and "clique:even+odd" not in printed
    assert "lfp.cte_statements = 1" in printed
    assert "dbms.statements.drop" not in printed


def test_trace_cli_traces_the_plan_a_plain_query_runs(tmp_path, capsys):
    # Without --optimize the traced plan is the default per-form decision:
    # a bound goal reaching a recursive clique runs its magic rewrite, as
    # through Testbed.query.
    rules = tmp_path / "rules.dkb"
    rules.write_text(RULES)
    out = tmp_path / "trace.json"
    assert main(["?- ancestor(ann, X).", "--load", str(rules), "--out", str(out)]) == 0
    assert "optimized=True" in capsys.readouterr().out
    (compile_event,) = [
        e for e in json.loads(out.read_text())["traceEvents"] if e["name"] == "compile"
    ]
    assert compile_event["args"]["optimized"] is True
