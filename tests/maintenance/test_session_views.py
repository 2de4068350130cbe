"""Testbed-level materialized-view lifecycle and insert maintenance."""

import pytest

from repro.errors import CatalogError, SemanticError
from repro.maintenance import PHASE_MAINT_DELTA, PHASE_MAINT_REFRESH
from repro.km.session import VIEW_ANSWER_PHASE

ANCESTOR_WITH_FACTS = """
    anc(X, Y) :- parent(X, Y).
    anc(X, Y) :- parent(X, Z), anc(Z, Y).
"""


def rows_of(testbed, text):
    return sorted(set(testbed.query(text).rows))


def slow_rows(testbed, text):
    return sorted(set(testbed.query(text, use_views=False).rows))


@pytest.fixture
def anc_testbed(testbed):
    testbed.define(ANCESTOR_WITH_FACTS)
    testbed.define_base_relation("parent", ("TEXT", "TEXT"))
    testbed.load_facts("parent", [("a", "b"), ("b", "c")])
    return testbed


class TestLifecycle:
    def test_materialize_populates_view(self, anc_testbed):
        count = anc_testbed.materialize("anc")
        assert count == 3
        assert anc_testbed.views.is_fresh("anc")
        entry = anc_testbed.maintenance_log[-1]
        assert entry.trigger == "materialize"

    def test_query_answered_from_view(self, anc_testbed):
        anc_testbed.materialize("anc")
        result = anc_testbed.query("?- anc(a, X).")
        assert result.answered_from_view
        assert result.compilation is None
        assert sorted(set(result.rows)) == [("b",), ("c",)]

    def test_use_views_false_bypasses(self, anc_testbed):
        anc_testbed.materialize("anc")
        result = anc_testbed.query("?- anc(a, X).", use_views=False)
        assert not result.answered_from_view
        assert result.compilation is not None

    def test_materialize_base_relation_rejected(self, anc_testbed):
        with pytest.raises(SemanticError):
            anc_testbed.materialize("parent")

    def test_materialize_twice_rejected(self, anc_testbed):
        anc_testbed.materialize("anc")
        with pytest.raises(CatalogError):
            anc_testbed.materialize("anc")

    def test_materialize_undefined_rejected(self, anc_testbed):
        with pytest.raises(SemanticError):
            anc_testbed.materialize("mystery")

    def test_drop_view_restores_slow_path(self, anc_testbed):
        anc_testbed.materialize("anc")
        anc_testbed.drop_view("anc")
        result = anc_testbed.query("?- anc(a, X).")
        assert not result.answered_from_view
        assert sorted(set(result.rows)) == [("b",), ("c",)]

    def test_refresh_unknown_view_rejected(self, anc_testbed):
        with pytest.raises(CatalogError):
            anc_testbed.refresh("anc")


class TestInsertMaintenance:
    def test_single_insert_propagates(self, anc_testbed):
        anc_testbed.materialize("anc")
        anc_testbed.load_facts("parent", [("c", "d")])
        entry = anc_testbed.maintenance_log[-1]
        assert entry.trigger == "insert"
        assert entry.strategy == "delta"
        assert rows_of(anc_testbed, "?- anc(a, X).") == [
            ("b",),
            ("c",),
            ("d",),
        ]
        assert rows_of(anc_testbed, "?- anc(X, Y).") == slow_rows(
            anc_testbed, "?- anc(X, Y)."
        )

    def test_duplicate_insert_is_noop_for_view(self, anc_testbed):
        anc_testbed.materialize("anc")
        before = anc_testbed.views.tuple_count("anc")
        anc_testbed.load_facts("parent", [("a", "b")])
        assert anc_testbed.views.tuple_count("anc") == before
        # The base relation keeps the duplicate copy.
        assert anc_testbed.catalog.fact_count("parent") == 3

    def test_bridge_insert_joins_components(self, anc_testbed):
        anc_testbed.load_facts("parent", [("x", "y")])
        anc_testbed.materialize("anc")
        anc_testbed.load_facts("parent", [("c", "x")])
        assert rows_of(anc_testbed, "?- anc(a, X).") == [
            ("b",),
            ("c",),
            ("x",),
            ("y",),
        ]

    def test_epoch_bumps_on_maintenance(self, anc_testbed):
        anc_testbed.materialize("anc")
        (info,) = anc_testbed.views.views()
        assert info.epoch == 0
        anc_testbed.load_facts("parent", [("c", "d")])
        (info,) = anc_testbed.views.views()
        assert info.epoch == 1

    def test_unrelated_relation_not_maintained(self, anc_testbed):
        anc_testbed.materialize("anc")
        anc_testbed.define_base_relation("color", ("TEXT",))
        logged = len(anc_testbed.maintenance_log)
        anc_testbed.load_facts("color", [("red",)])
        assert len(anc_testbed.maintenance_log) == logged


class TestStaleness:
    def test_new_rule_marks_view_stale(self, anc_testbed):
        anc_testbed.materialize("anc")
        anc_testbed.define_base_relation("special", ("TEXT", "TEXT"))
        anc_testbed.define("anc(X, Y) :- special(X, Y).")
        assert not anc_testbed.views.is_fresh("anc")
        # Stale views are bypassed, not served.
        result = anc_testbed.query("?- anc(a, X).")
        assert not result.answered_from_view

    def test_rules_go_stale_before_a_later_fact_loads(self, anc_testbed):
        anc_testbed.materialize("anc")
        anc_testbed.define_base_relation("special", ("TEXT", "TEXT"))
        logged = len(anc_testbed.maintenance_log)
        anc_testbed.define(
            "anc(X, Y) :- special(X, Y). anc(X, Y) :- special(Y, X). parent(c, d)."
        )
        assert not anc_testbed.views.is_fresh("anc")
        # The fact was not propagated under the plan the two rules outdated.
        assert len(anc_testbed.maintenance_log) == logged
        assert rows_of(anc_testbed, "?- anc(a, X).") == [("b",), ("c",), ("d",)]

    def test_refresh_restores_freshness(self, anc_testbed):
        anc_testbed.materialize("anc")
        anc_testbed.define("anc(X, Y) :- extra(X, Y).")
        anc_testbed.define_base_relation("extra", ("TEXT", "TEXT"))
        anc_testbed.load_facts("extra", [("q", "r")])
        results = anc_testbed.refresh("anc")
        assert len(results) == 1
        assert anc_testbed.views.is_fresh("anc")
        assert rows_of(anc_testbed, "?- anc(q, X).") == [("r",)]

    def test_clear_workspace_marks_stale(self, anc_testbed):
        anc_testbed.materialize("anc")
        anc_testbed.clear_workspace()
        assert not anc_testbed.views.is_fresh("anc")


class TestStatistics:
    def test_maintenance_phases_recorded(self, anc_testbed):
        anc_testbed.materialize("anc")
        anc_testbed.load_facts("parent", [("c", "d")])
        anc_testbed.query("?- anc(a, X).")
        phases = anc_testbed.database.statistics.phases()
        assert PHASE_MAINT_REFRESH in phases
        assert PHASE_MAINT_DELTA in phases
        assert VIEW_ANSWER_PHASE in phases
        assert phases[PHASE_MAINT_DELTA].statements > 0


class TestPersistence:
    def test_views_survive_reopen(self, tmp_path):
        from repro.km.session import Testbed

        path = tmp_path / "dkb.sqlite"
        with Testbed(str(path)) as tb:
            tb.define(ANCESTOR_WITH_FACTS)
            tb.define_base_relation("parent", ("TEXT", "TEXT"))
            tb.load_facts("parent", [("a", "b"), ("b", "c")])
            tb.update_stored_dkb()
            tb.materialize("anc")
        with Testbed(str(path)) as tb:
            assert tb.views.is_fresh("anc")
            result = tb.query("?- anc(a, X).")
            assert result.answered_from_view
            assert sorted(set(result.rows)) == [("b",), ("c",)]
            # Maintenance still works: the plan is rebuilt from the stored
            # rule base.
            tb.delete_facts("parent", [("b", "c")])
            assert rows_of(tb, "?- anc(X, Y).") == [("a", "b")]


class TestTwoHandles:
    def test_rules_stored_by_another_handle_reach_maintenance(self, tmp_path):
        # B's maintenance plan for ancestor predates A's new step rule: a
        # step insert through B must not go through the old plan.
        from repro.km.session import Testbed
        from repro.workloads.queries import ANCESTOR_RULES

        path = str(tmp_path / "dkb.sqlite")
        with Testbed(path) as a, Testbed(path) as b:
            a.define(ANCESTOR_RULES)
            a.define_base_relation("parent", ("TEXT", "TEXT"))
            a.define_base_relation("step", ("TEXT", "TEXT"))
            a.update_stored_dkb()
            b.materialize("ancestor")
            a.define("ancestor(X, Y) :- step(X, Y).")
            a.update_stored_dkb()
            a.refresh("ancestor")
            b.load_facts("step", [("n0", "n1")])
            for handle in (a, b):
                assert rows_of(handle, "?- ancestor(X, Y).") == [("n0", "n1")]
                assert slow_rows(handle, "?- ancestor(X, Y).") == [("n0", "n1")]
