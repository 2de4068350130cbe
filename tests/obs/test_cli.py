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
