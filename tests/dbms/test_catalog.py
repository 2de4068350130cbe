"""Unit tests for the extensional catalog."""

import pytest

from repro.dbms.catalog import ExtensionalCatalog, fact_table_name
from repro.dbms.schema import open_dkb
from repro.errors import CatalogError


@pytest.fixture
def database(database):
    """The fresh in-memory DBMS, opened as a D/KB."""
    open_dkb(database)
    return database


class TestRelationLifecycle:
    def test_create_registers_dictionary(self, catalog):
        catalog.create_relation("parent", ("TEXT", "TEXT"))
        assert catalog.has_relation("parent")
        assert catalog.relation_names() == ["parent"]

    def test_fact_table_created(self, catalog, database):
        catalog.create_relation("parent", ("TEXT", "TEXT"))
        assert database.table_exists(fact_table_name("parent"))

    def test_duplicate_rejected(self, catalog):
        catalog.create_relation("p", ("TEXT",))
        with pytest.raises(CatalogError):
            catalog.create_relation("p", ("TEXT",))

    def test_drop(self, catalog, database):
        catalog.create_relation("p", ("TEXT",))
        catalog.drop_relation("p")
        assert not catalog.has_relation("p")
        assert not database.table_exists(fact_table_name("p"))

    def test_drop_missing_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.drop_relation("ghost")

    def test_schema_of(self, catalog):
        catalog.create_relation("r", ("TEXT", "INTEGER"))
        schema = catalog.schema_of("r")
        assert schema.types == ("TEXT", "INTEGER")
        assert schema.name == fact_table_name("r")

    def test_schema_of_missing(self, catalog):
        with pytest.raises(CatalogError):
            catalog.schema_of("ghost")


class TestFacts:
    def test_insert_and_count(self, catalog):
        catalog.create_relation("p", ("TEXT", "INTEGER"))
        assert catalog.insert_facts("p", [("a", 1), ("b", 2)]) == 2
        assert catalog.fact_count("p") == 2

    def test_facts_of(self, catalog):
        catalog.create_relation("p", ("TEXT",))
        catalog.insert_facts("p", [("x",)])
        assert catalog.facts_of("p") == [("x",)]

    def test_facts_of_missing(self, catalog):
        with pytest.raises(CatalogError):
            catalog.facts_of("ghost")

    def test_delete_facts_keeps_schema(self, catalog):
        catalog.create_relation("p", ("TEXT",))
        catalog.insert_facts("p", [("x",)])
        catalog.delete_facts("p")
        assert catalog.fact_count("p") == 0
        assert catalog.has_relation("p")


class TestDictionaryRead:
    def test_types_of_single(self, catalog):
        catalog.create_relation("p", ("TEXT", "INTEGER"))
        assert catalog.types_of(["p"]) == {"p": ("TEXT", "INTEGER")}

    def test_types_of_many_one_query(self, catalog, database):
        catalog.create_relation("p", ("TEXT",))
        catalog.create_relation("q", ("INTEGER", "INTEGER"))
        database.statistics.reset()
        types = catalog.types_of(["p", "q"])
        assert types == {"p": ("TEXT",), "q": ("INTEGER", "INTEGER")}
        assert database.statistics.total.statements == 1

    def test_types_of_unknown_silently_absent(self, catalog):
        catalog.create_relation("p", ("TEXT",))
        assert catalog.types_of(["p", "ghost"]) == {"p": ("TEXT",)}

    def test_types_of_empty(self, catalog):
        assert catalog.types_of([]) == {}

    def test_dictionary_persists_across_instances(self, database):
        first = ExtensionalCatalog(database)
        first.create_relation("p", ("TEXT",))
        second = ExtensionalCatalog(database)
        assert second.has_relation("p")
