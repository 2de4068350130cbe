"""Property tests: incremental view maintenance equals from-scratch evaluation.

Random small graphs take random sequences of insert and delete batches
against materialized views.  After every batch — and at the end — the
maintained views must hold exactly what the compile-and-evaluate path
(``query(..., use_views=False)``) computes over the surviving facts.  A
permissive cost policy keeps the deletes on the DRed path (the heuristic's
fallback is exercised separately in ``tests/maintenance``), so this drives
delta propagation and delete-and-rederive, in interleaved order, across
many shapes: a linear closure, two views sharing one support relation
(merged plans), heads with a constant and with a repeated variable, and
nonlinear recursion.

Some batches are *rolled back*: the write raises after the base change and
its maintenance ran, on a standalone ``Testbed`` (an explicit transaction)
and on a pooled ``SessionPool`` (``pool.apply``).  Every run starts with
such a write, so the maintenance scratch relations are first created inside
a transaction that then rolls back — the next write must still work.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Testbed
from repro.maintenance import MaintenancePolicy
from repro.server.pool import SessionPool

ANCESTOR = (
    "ancestor(X, Y) :- parent(X, Y)."
    "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y)."
)

#: name -> (rules, views to materialize)
SCENARIOS = {
    "ancestor": (ANCESTOR, ("ancestor",)),
    "shared_support": (
        ANCESTOR + "roots(X) :- ancestor(X, Y). reach(Y) :- ancestor(n0, Y).",
        ("roots", "reach"),
    ),
    "head_terms": (
        "mark(X, n0) :- parent(X, Y)."
        "mark(X, X) :- parent(Y, X)."
        "mark(X, Y) :- parent(X, Z), mark(Z, Y).",
        ("mark",),
    ),
    "nonlinear": (
        "sg(X, Y) :- parent(P, X), parent(P, Y)."
        "sg(X, Y) :- parent(PX, X), sg(PX, PY), parent(PY, Y)."
        "tc(X, Y) :- parent(X, Y)."
        "tc(X, Y) :- tc(X, Z), tc(Z, Y).",
        ("sg", "tc"),
    ),
}

PERMISSIVE = MaintenancePolicy(
    max_delete_fraction=1.0, max_derived_base_ratio=float("inf")
)

PARENT_TYPES = ("TEXT", "TEXT")

NODES = [f"n{i}" for i in range(6)]

edge = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(
    lambda e: e[0] != e[1]
)
batch = st.lists(edge, min_size=1, max_size=4, unique=True)
operations = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), batch),
    min_size=1,
    max_size=6,
)
undoable_operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "undo-insert", "undo-delete"]),
        batch,
    ),
    min_size=1,
    max_size=6,
)


class Abort(Exception):
    """Raised inside a write to roll it back."""


def transitive_closure(edges: set[tuple[str, str]]) -> set[tuple[str, str]]:
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for x, y in list(closure):
            for y2, z in list(closure):
                if y == y2 and (x, z) not in closure:
                    # Cycles make ancestor reflexive on their members, so
                    # (x, x) pairs are genuine answers here.
                    closure.add((x, z))
                    changed = True
    return closure


def view_rows(tb: Testbed, predicate: str = "ancestor") -> set[tuple]:
    return set(tb.database.fetch_all(f"mv_{predicate}"))


def all_free_query(predicate: str, arity: int) -> str:
    variables = ", ".join(f"V{i}" for i in range(arity))
    return f"?- {predicate}({variables})."


def write(tb: Testbed, action: str, rows) -> None:
    if action == "insert":
        tb.load_facts("parent", rows)
    else:
        tb.delete_facts("parent", rows)


def write_then_abort(tb: Testbed, action: str, rows) -> None:
    write(tb, action, rows)
    raise Abort(action)


class StandaloneTarget:
    """A ``Testbed`` whose rolled-back writes use an explicit transaction."""

    def __init__(self, program: str, initial, views) -> None:
        self.tb = Testbed()
        self.tb.maintenance_policy = PERMISSIVE
        self.tb.define(program)
        self.tb.define_base_relation("parent", PARENT_TYPES)
        self.tb.load_facts("parent", initial)
        for view in views:
            self.tb.materialize(view)

    def close(self) -> None:
        self.tb.close()

    def apply(self, action: str, rows) -> None:
        if not action.startswith("undo-"):
            write(self.tb, action, rows)
            return
        with pytest.raises(Abort):
            with self.tb.database.transaction():
                write_then_abort(self.tb, action[len("undo-"):], rows)

    def check(self) -> None:
        """Every materialized relation, views and support alike."""
        for info in self.tb.views.registered():
            fresh = self.tb.query(
                all_free_query(info.predicate, info.arity), use_views=False
            )
            assert view_rows(self.tb, info.predicate) == set(fresh.rows), (
                info.predicate
            )


class PooledTarget:
    """A ``SessionPool``: writes on its writer, checks through a reader."""

    def __init__(self, path: str, program: str, initial, views) -> None:
        self.pool = SessionPool(path, readers=1)
        self.pool.writer.maintenance_policy = PERMISSIVE
        self.pool.define(program)
        self.pool.load_facts("parent", initial, types=PARENT_TYPES)
        for view in views:
            self.pool.materialize(view)
        self.views = views

    def close(self) -> None:
        self.pool.close()

    def apply(self, action: str, rows) -> None:
        if not action.startswith("undo-"):
            self.pool.apply(lambda tb: write(tb, action, rows))
            return
        with pytest.raises(Abort):
            self.pool.apply(
                lambda tb: write_then_abort(tb, action[len("undo-"):], rows)
            )

    def check(self) -> None:
        for view in self.views:
            arity = self.pool.writer.views.types_of(view)
            text = all_free_query(view, len(arity))
            served = self.pool.query(text, use_cache=False)
            fresh = self.pool.query(text, use_views=False, use_cache=False)
            assert served.answered_from_view
            assert set(served.rows) == set(fresh.rows), view


def exercise(target, initial, ops) -> None:
    try:
        # The first maintained writes roll back, taking the scratch
        # relations they created with them.
        target.apply("undo-insert", initial)
        target.apply("undo-delete", initial)
        target.check()
        for action, rows in ops:
            target.apply(action, rows)
            target.check()
    finally:
        target.close()


class TestMaintainedAncestorEquivalence:
    @given(initial=batch, ops=operations)
    @settings(max_examples=25, deadline=None)
    def test_maintained_view_matches_model(self, initial, ops):
        model: set[tuple[str, str]] = set(initial)
        tb = Testbed()
        tb.maintenance_policy = PERMISSIVE
        try:
            tb.define(ANCESTOR)
            tb.define_base_relation("parent", ("TEXT", "TEXT"))
            tb.load_facts("parent", initial)
            tb.materialize("ancestor")
            assert view_rows(tb) == transitive_closure(model)
            for action, rows in ops:
                if action == "insert":
                    tb.load_facts("parent", rows)
                    model |= set(rows)
                else:
                    tb.delete_facts("parent", rows)
                    model -= set(rows)
                assert view_rows(tb) == transitive_closure(model), (
                    action,
                    rows,
                )
            # The maintained view agrees with the compile-and-evaluate path
            # over the final database.
            fresh = tb.query("?- ancestor(X, Y).", use_views=False)
            assert view_rows(tb) == set(fresh.rows)
            served = tb.query("?- ancestor(X, Y).")
            assert served.answered_from_view
            assert set(served.rows) == set(fresh.rows)
        finally:
            tb.close()

    @given(initial=batch, ops=operations)
    @settings(max_examples=10, deadline=None)
    def test_default_policy_also_correct(self, initial, ops):
        """Whatever strategy the default heuristic picks, answers match."""
        tb = Testbed()
        try:
            tb.define(ANCESTOR)
            tb.define_base_relation("parent", ("TEXT", "TEXT"))
            tb.load_facts("parent", initial)
            tb.materialize("ancestor")
            model = set(initial)
            for action, rows in ops:
                if action == "insert":
                    tb.load_facts("parent", rows)
                    model |= set(rows)
                else:
                    tb.delete_facts("parent", rows)
                    model -= set(rows)
            assert view_rows(tb) == transitive_closure(model)
        finally:
            tb.close()


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
class TestMaintainedViewShapes:
    @given(initial=batch, ops=undoable_operations)
    @settings(max_examples=20, deadline=None)
    def test_standalone_views_match_evaluation(self, scenario, initial, ops):
        program, views = SCENARIOS[scenario]
        exercise(StandaloneTarget(program, initial, views), initial, ops)

    @given(initial=batch, ops=undoable_operations)
    @settings(max_examples=6, deadline=None)
    def test_pooled_views_match_evaluation(self, scenario, initial, ops):
        program, views = SCENARIOS[scenario]
        with tempfile.TemporaryDirectory() as directory:
            target = PooledTarget(
                os.path.join(directory, "dkb.sqlite"), program, initial, views
            )
            exercise(target, initial, ops)
