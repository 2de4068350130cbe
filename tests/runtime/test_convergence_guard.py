"""Regression tests: LFP loops must fail loudly when they hit the cap.

The seed silently fell out of the evaluation loop at ``MAX_ITERATIONS``,
returning a truncated (non-least) fixed point as if it had converged.  Both
iterating strategies must instead raise :class:`EvaluationError` so a runaway
recursion can never masquerade as an answer.
"""

from __future__ import annotations

import pytest

import repro.runtime.naive
from repro.errors import EvaluationError
from repro.runtime.context import EvaluationContext
from repro.runtime.naive import evaluate_clique_naive
from repro.runtime.seminaive import evaluate_clique_seminaive

from .conftest import EDGES, closure_of

STRATEGIES = [
    ("naive", evaluate_clique_naive),
    ("semi-naive", evaluate_clique_seminaive),
]


@pytest.mark.parametrize("name,evaluate", STRATEGIES)
def test_iteration_cap_raises(
    monkeypatch, edge_context, ancestor_clique, name, evaluate
):
    # The 3-edge chain needs 4 iterations to converge; cap it at 2.  The
    # authoritative constant lives in repro.runtime.naive and semi-naive
    # reads it dynamically, so one monkeypatch covers both.
    monkeypatch.setattr(repro.runtime.naive, "MAX_ITERATIONS", 2)
    with pytest.raises(EvaluationError) as excinfo:
        evaluate(edge_context, ancestor_clique)
    message = str(excinfo.value)
    assert name in message
    assert "2" in message
    assert "anc" in message


@pytest.mark.parametrize("in_transaction", [False, True])
@pytest.mark.parametrize("name,evaluate", STRATEGIES)
def test_cap_abort_then_same_database_converges(
    monkeypatch, edge_context, ancestor_clique, name, evaluate, in_transaction
):
    # The abort leaves the loop's scratch relations half-filled (or, inside
    # a rolled-back transaction, gone); the next evaluation on the same
    # handle must still reach the whole fixed point.
    database = edge_context.database
    monkeypatch.setattr(repro.runtime.naive, "MAX_ITERATIONS", 2)
    with pytest.raises(EvaluationError):
        if in_transaction:
            with database.transaction():
                evaluate(edge_context, ancestor_clique)
        else:
            evaluate(edge_context, ancestor_clique)
    edge_context.cleanup()

    monkeypatch.setattr(repro.runtime.naive, "MAX_ITERATIONS", 16)
    context = EvaluationContext(
        database,
        {"edge": "t_edge"},
        {"edge": ("TEXT", "TEXT"), "anc": ("TEXT", "TEXT")},
    )
    evaluate(context, ancestor_clique)
    assert set(database.fetch_all(context.table_of("anc"))) == closure_of(EDGES)


@pytest.mark.parametrize("name,evaluate", STRATEGIES)
def test_generous_cap_still_converges(
    monkeypatch, edge_context, ancestor_clique, name, evaluate
):
    # A cap above the true convergence point must not perturb the result.
    monkeypatch.setattr(repro.runtime.naive, "MAX_ITERATIONS", 16)
    result = evaluate(edge_context, ancestor_clique)
    assert result.iterations <= 16
    assert result.tuples_by_predicate["anc"] == 6
