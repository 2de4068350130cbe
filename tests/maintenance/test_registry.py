"""Unit tests for the materialized-view registry."""

import pytest

from repro.maintenance.registry import MaterializedViewRegistry, view_table_name


@pytest.fixture
def registry(database):
    return MaterializedViewRegistry(database)


def register_anc(registry):
    registry.register_view(
        "anc", {"anc": ("TEXT", "TEXT")}, base_deps=["parent"]
    )


class TestRegistration:
    def test_register_creates_tables(self, registry, database):
        register_anc(registry)
        assert database.table_exists(view_table_name("anc"))
        assert registry.is_view("anc")
        assert registry.is_registered("anc")
        assert not registry.is_fresh("anc")

    def test_has_views(self, registry):
        assert not registry.has_views()
        register_anc(registry)
        assert registry.has_views()

    def test_types_and_deps_round_trip(self, registry):
        registry.register_view(
            "q",
            {"q": ("TEXT",), "helper": ("TEXT", "TEXT")},
            base_deps=["edge", "node"],
        )
        assert registry.types_of("q") == ("TEXT",)
        assert registry.types_of("helper") == ("TEXT", "TEXT")
        assert registry.base_deps_of("q") == ["edge", "node"]
        assert set(registry.support_of("q")) == {"q", "helper"}

    def test_support_relations_are_not_views(self, registry):
        registry.register_view(
            "q", {"q": ("TEXT",), "helper": ("TEXT",)}, base_deps=["edge"]
        )
        assert registry.is_view("q")
        assert not registry.is_view("helper")
        assert registry.is_registered("helper")

    def test_views_listing(self, registry):
        register_anc(registry)
        infos = registry.views()
        assert [v.predicate for v in infos] == ["anc"]
        assert infos[0].arity == 2
        assert infos[0].epoch == 0


def indexes_of(database, table):
    rows = database.execute(
        "SELECT name FROM sqlite_master WHERE type = 'index' AND tbl_name = ?",
        (table,),
    )
    return {name for (name,) in rows}


class TestKeyIndex:
    def test_view_relation_indexed_on_all_columns(self, registry, database):
        register_anc(registry)
        table = view_table_name("anc")
        assert indexes_of(database, table) == {
            f"idx_{table}_key",
            f"idx_{table}_1",
        }
        plan = database.explain_plan(
            f"SELECT 1 FROM {table} WHERE c0 = ? AND c1 = ?", ("a", "b")
        )
        assert any(f"idx_{table}_key" in line for line in plan)

    def test_reregistration_upgrades_an_older_relation(
        self, registry, database
    ):
        register_anc(registry)
        table = view_table_name("anc")
        # The layout an older build left behind: per-column indexes only.
        database.execute(f"DROP INDEX idx_{table}_key")
        database.create_index(f"idx_{table}_0", table, ["c0"])
        register_anc(registry)
        assert indexes_of(database, table) == {
            f"idx_{table}_key",
            f"idx_{table}_1",
        }


class TestFreshness:
    def test_mark_group_fresh_and_stale(self, registry):
        register_anc(registry)
        registry.mark_group_fresh("anc")
        assert registry.is_fresh("anc")
        registry.mark_stale(["anc"])
        assert not registry.is_fresh("anc")

    def test_group_freshness_covers_support(self, registry):
        registry.register_view(
            "q", {"q": ("TEXT",), "helper": ("TEXT",)}, base_deps=["edge"]
        )
        registry.mark_group_fresh("q")
        assert registry.is_fresh("helper")

    def test_epoch_bumps(self, registry):
        register_anc(registry)
        registry.bump_epoch(["anc"])
        registry.bump_epoch(["anc"])
        (info,) = registry.views()
        assert info.epoch == 2

    def test_fresh_views_on_base(self, registry):
        register_anc(registry)
        assert registry.fresh_views_on_base("parent") == []
        registry.mark_group_fresh("anc")
        assert registry.fresh_views_on_base("parent") == ["anc"]
        assert registry.fresh_views_on_base("other") == []

    def test_views_supported_by(self, registry):
        registry.register_view(
            "q", {"q": ("TEXT",), "helper": ("TEXT",)}, base_deps=["edge"]
        )
        assert registry.views_supported_by(["helper"]) == ["q"]
        assert registry.views_supported_by(["nothing"]) == []


class TestUnregister:
    def test_unregister_drops_tables(self, registry, database):
        register_anc(registry)
        registry.unregister_view("anc")
        assert not database.table_exists(view_table_name("anc"))
        assert not registry.is_registered("anc")

    def test_shared_support_survives(self, registry, database):
        registry.register_view(
            "a", {"a": ("TEXT",), "shared": ("TEXT",)}, base_deps=["edge"]
        )
        registry.register_view(
            "b", {"b": ("TEXT",), "shared": ("TEXT",)}, base_deps=["edge"]
        )
        registry.unregister_view("a")
        assert not database.table_exists(view_table_name("a"))
        assert database.table_exists(view_table_name("shared"))
        assert registry.is_registered("shared")
        registry.unregister_view("b")
        assert not database.table_exists(view_table_name("shared"))

    def test_reregister_replaces_deps(self, registry):
        register_anc(registry)
        registry.register_view(
            "anc", {"anc": ("TEXT", "TEXT")}, base_deps=["edge"]
        )
        assert registry.base_deps_of("anc") == ["edge"]
