"""Unit tests for the Stored D/KB Manager and its storage structures."""

import pytest

from repro.datalog.parser import parse_clause, parse_program
from repro.datalog.pcg import PredicateConnectionGraph
from repro.km.stored import StoredDKB
from repro.errors import UpdateError

CHAIN = parse_program(
    """
    a(X, Y) :- b(X, Z), base1(Z, Y).
    b(X, Y) :- c(X, Z), base2(Z, Y).
    c(X, Y) :- base3(X, Y).
    other(X) :- unrelated(X).
    """
)


def transitive_closure(edges):
    """Pairs joined by a path of one or more ``edges`` (naive fixpoint)."""
    pairs = set(edges)
    while True:
        grown = pairs | {(a, d) for a, b in pairs for c, d in pairs if b == c}
        if grown == pairs:
            return pairs
        pairs = grown


@pytest.fixture
def stored(database):
    dkb = StoredDKB(database)
    dkb.store_rules(CHAIN.rules)
    dkb.rebuild_closure()
    return dkb


class TestRuleStorage:
    def test_store_counts_new_only(self, database):
        dkb = StoredDKB(database)
        assert dkb.store_rules(CHAIN.rules) == 4
        assert dkb.store_rules(CHAIN.rules) == 0
        assert dkb.rule_count() == 4

    def test_all_rules_round_trip(self, stored):
        assert stored.all_rules() == CHAIN

    def test_store_is_one_statement(self, database):
        dkb = StoredDKB(database)
        database.statistics.reset()
        dkb.store_rules(CHAIN.rules)
        assert database.statistics.total.statements == 1

    def test_stored_among_probes_only_the_given_texts(self, stored, database):
        present = str(parse_clause("c(X, Y) :- base3(X, Y)."))
        absent = str(parse_clause("c(X, Y) :- base4(X, Y)."))
        database.statistics.reset()
        assert stored.stored_among([present, absent]) == {present}
        total = database.statistics.total
        assert (total.statements, total.rows_fetched) == (1, 1)

    def test_rule_texts_with_head(self, stored):
        assert stored.rule_texts_with_head("c") == [
            str(parse_clause("c(X, Y) :- base3(X, Y)."))
        ]
        assert stored.rule_texts_with_head("base3") == []


class TestExtraction:
    def test_extracts_reachable_chain(self, stored):
        program = stored.extract_relevant_rules(["a"])
        assert {c.head_predicate for c in program} == {"a", "b", "c"}

    def test_extracts_nothing_for_base(self, stored):
        assert len(stored.extract_relevant_rules(["base1"])) == 0

    def test_mid_chain_extraction(self, stored):
        program = stored.extract_relevant_rules(["b"])
        assert {c.head_predicate for c in program} == {"b", "c"}

    def test_single_statement_with_compiled_storage(self, stored, database):
        database.statistics.reset()
        stored.extract_relevant_rules(["a"])
        assert database.statistics.total.statements == 1

    def test_source_only_extraction_matches(self, database):
        compiled = StoredDKB(database)
        compiled.store_rules(CHAIN.rules)
        compiled.rebuild_closure()
        source_only = StoredDKB(database, compiled_storage=False)
        assert source_only.extract_relevant_rules(["a"]) == (
            compiled.extract_relevant_rules(["a"])
        )

    def test_source_only_needs_multiple_statements(self, database):
        dkb = StoredDKB(database, compiled_storage=False)
        dkb.store_rules(CHAIN.rules)
        database.statistics.reset()
        dkb.extract_relevant_rules(["a"])
        assert database.statistics.total.statements > 1

    def test_empty_request(self, stored):
        assert len(stored.extract_relevant_rules([])) == 0


class TestDictionary:
    def test_register_and_read(self, database):
        dkb = StoredDKB(database)
        types = {"p": ("TEXT", "INTEGER"), "q": ("TEXT",)}
        assert dkb.register_predicates(types, {}) == ["p", "q"]
        assert dkb.derived_types_of(["p", "q"]) == types
        assert dkb.predicate_count() == 2

    def test_register_is_two_batches(self, database):
        dkb = StoredDKB(database)
        database.statistics.reset()
        dkb.register_predicates({f"p{i}": ("TEXT", "TEXT") for i in range(5)}, {})
        assert database.statistics.total.statements == 2

    def test_register_idempotent(self, database):
        dkb = StoredDKB(database)
        dkb.register_predicates({"p": ("TEXT",)}, {})
        known = dkb.derived_types_of(["p"])
        database.statistics.reset()
        assert dkb.register_predicates({"p": ("TEXT",)}, known) == []
        assert database.statistics.total.statements == 0
        assert dkb.predicate_count() == 1

    def test_register_conflict_rejected(self, database):
        dkb = StoredDKB(database)
        dkb.register_predicates({"p": ("TEXT",)}, {})
        known = dkb.derived_types_of(["p"])
        with pytest.raises(UpdateError):
            dkb.register_predicates({"p": ("INTEGER",), "q": ("TEXT",)}, known)
        assert dkb.predicate_count() == 1  # nothing written

    def test_read_unknown_silently_absent(self, database):
        dkb = StoredDKB(database)
        assert dkb.derived_types_of(["ghost"]) == {}


class TestClosure:
    def test_rebuild_matches_pcg(self, stored):
        expected = PredicateConnectionGraph(CHAIN.rules).transitive_closure()
        assert stored.closure_pairs() == expected

    def test_reachable_predicates(self, stored):
        assert stored.reachable_predicates(["a"]) == {
            "b",
            "c",
            "base1",
            "base2",
            "base3",
        }

    def test_incremental_matches_rebuild(self, database):
        dkb = StoredDKB(database)
        # Insert rules one by one, maintaining the closure incrementally.
        for clause in CHAIN.rules:
            dkb.store_rules([clause])
            edges = [
                (clause.head_predicate, atom.predicate) for atom in clause.body
            ]
            dkb.add_edges_incremental(edges)
        incremental = dkb.closure_pairs()
        dkb.rebuild_closure()
        assert incremental == dkb.closure_pairs()

    def test_incremental_cycle(self, database):
        dkb = StoredDKB(database)
        dkb.add_edges_incremental([("p", "q"), ("q", "p")])
        assert dkb.closure_pairs() == {
            ("p", "q"),
            ("q", "p"),
            ("p", "p"),
            ("q", "q"),
        }

    def test_incremental_duplicate_edges_noop(self, database):
        dkb = StoredDKB(database)
        dkb.add_edges_incremental([("p", "q")])
        assert dkb.add_edges_incremental([("p", "q")]) == 0

    def test_incremental_chained_edges_in_one_batch(self, database):
        # p -> q -> r -> s arriving together: the closure must join them.
        dkb = StoredDKB(database)
        edges = [("r", "s"), ("p", "q"), ("q", "r")]
        assert dkb.add_edges_incremental(edges) == 6
        assert dkb.closure_pairs() == transitive_closure(edges)

    def test_incremental_chain_through_old_pairs(self, database):
        # Old q -> r; new p -> q and r -> s link through it, and s -> p
        # closes a cycle over all four.
        dkb = StoredDKB(database)
        dkb.add_edges_incremental([("q", "r")])
        dkb.add_edges_incremental([("p", "q"), ("r", "s"), ("s", "p")])
        nodes = ("p", "q", "r", "s")
        assert dkb.closure_pairs() == {(a, b) for a in nodes for b in nodes}

    def test_incremental_is_three_statements(self, stored, database):
        old = stored.closure_pairs()
        new = [("n1", "n2"), ("n2", "a"), ("n3", "b"), ("b", "n3")]
        database.statistics.reset()
        inserted = stored.add_edges_incremental(new)
        assert database.statistics.total.statements == 3
        expected = transitive_closure(old | set(new))
        assert stored.closure_pairs() == expected
        assert inserted == len(expected - old)

    def test_persistence_across_instances(self, database):
        dkb = StoredDKB(database)
        dkb.store_rules(CHAIN.rules)
        dkb.rebuild_closure()
        again = StoredDKB(database)
        assert again.rule_count() == 4
        assert again.closure_pairs() == dkb.closure_pairs()
