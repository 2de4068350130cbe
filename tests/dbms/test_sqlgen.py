"""Unit tests for rule-body-to-SQL translation."""

import pytest

from repro.datalog.parser import parse_clause
from repro.dbms.schema import RelationSchema
from repro.dbms.sqlgen import (
    compile_rule_body,
    copy_sql,
    difference_sql,
    insert_new_tuples_sql,
)
from repro.errors import CodeGenerationError


def run_body(database, clause_text, tables):
    """Compile a rule body and run it against concrete tables."""
    compiled = compile_rule_body(parse_clause(clause_text))
    sql = compiled.render(tables)
    return set(database.execute(sql, compiled.parameters))


@pytest.fixture
def edges(database):
    schema = RelationSchema("edges", ("TEXT", "TEXT"))
    database.create_relation(schema)
    database.insert_rows(
        schema, [("a", "b"), ("b", "c"), ("a", "c"), ("c", "a")]
    )
    return database


class TestCompile:
    def test_projection(self, edges):
        rows = run_body(edges, "p(Y) :- e(X, Y).", ["edges"])
        assert rows == {("b",), ("c",), ("a",)}

    def test_join_on_shared_variable(self, edges):
        rows = run_body(edges, "p(X, Z) :- e(X, Y), e(Y, Z).", ["edges", "edges"])
        assert ("a", "c") in rows  # a->b->c
        assert ("b", "a") in rows  # b->c->a

    def test_constant_filter_parameterised(self, edges):
        compiled = compile_rule_body(parse_clause("p(Y) :- e('a', Y)."))
        assert "?" in compiled.sql
        assert compiled.parameters == ("a",)
        rows = set(edges.execute(compiled.render(["edges"]), compiled.parameters))
        assert rows == {("b",), ("c",)}

    def test_head_constants_selected(self, edges):
        rows = run_body(edges, "p(X, 'tag') :- e(X, 'b').", ["edges"])
        assert rows == {("a", "tag")}

    def test_repeated_variable_in_atom(self, edges):
        edges.execute("INSERT INTO edges VALUES ('d', 'd')")
        rows = run_body(edges, "p(X) :- e(X, X).", ["edges"])
        assert rows == {("d",)}

    def test_distinct_results(self, edges):
        # a reaches c two ways; DISTINCT must collapse them.
        rows = edges.execute(
            compile_rule_body(
                parse_clause("p(X) :- e(X, Y).")
            ).render(["edges"])
        )
        assert len(rows) == len(set(rows))

    def test_negation_not_exists(self, edges):
        # nodes X with an out-edge but no edge back to 'a'
        rows = run_body(
            edges,
            "p(X) :- e(X, Y), not e(Y, 'a').",
            ["edges", "edges"],
        )
        # a->b (b has no edge to a... b->c only) keeps ('a',);
        # b->c: c->a exists, drop; a->c: drop; c->a: a->? no edge a->a... keep.
        assert ("b",) not in {r for r in rows}

    def test_cartesian_product_when_no_shared_variables(self, database):
        schema_a = RelationSchema("ta", ("TEXT",))
        schema_b = RelationSchema("tb", ("TEXT",))
        database.create_relation(schema_a)
        database.create_relation(schema_b)
        database.insert_rows(schema_a, [("x",), ("y",)])
        database.insert_rows(schema_b, [("1",), ("2",)])
        rows = run_body(database, "p(A, B) :- r(A), s(B).", ["ta", "tb"])
        assert len(rows) == 4

    def test_positive_predicates_in_order(self):
        compiled = compile_rule_body(
            parse_clause("p(X) :- q(X), r(X), q(X).")
        )
        assert compiled.positive_predicates == ("q", "r", "q")

    def test_render_with_mapping(self, edges):
        compiled = compile_rule_body(parse_clause("p(Y) :- e(X, Y)."))
        sql = compiled.render_with({"e": "edges"})
        assert '"edges"' in sql


class TestRejections:
    def test_empty_positive_body(self):
        with pytest.raises(CodeGenerationError):
            compile_rule_body(parse_clause("p(X) :- not q(X)."))

    def test_unsafe_head_variable(self):
        with pytest.raises(CodeGenerationError):
            compile_rule_body(parse_clause("p(X, Y) :- q(X)."))

    def test_unsafe_negated_variable(self):
        with pytest.raises(CodeGenerationError):
            compile_rule_body(parse_clause("p(X) :- q(X), not r(Y)."))

    def test_render_wrong_table_count(self):
        compiled = compile_rule_body(parse_clause("p(X) :- q(X)."))
        with pytest.raises(CodeGenerationError):
            compiled.render(["one", "two"])


class TestSetHelpers:
    def test_insert_new_tuples_deduplicates(self, database):
        schema = RelationSchema("target", ("TEXT",))
        source = RelationSchema("source", ("TEXT",))
        database.create_relation(schema)
        database.create_relation(source)
        database.insert_rows(schema, [("a",)])
        database.insert_rows(source, [("a",), ("b",)])
        database.execute(
            insert_new_tuples_sql("target", "SELECT c0 FROM source", 1)
        )
        assert sorted(database.fetch_all("target")) == [("a",), ("b",)]

    def test_difference_sql(self, database):
        for name in ("left", "right"):
            database.create_relation(RelationSchema(name, ("TEXT",)))
        database.insert_rows(RelationSchema("left", ("TEXT",)), [("a",), ("b",)])
        database.insert_rows(RelationSchema("right", ("TEXT",)), [("a",)])
        rows = database.execute(difference_sql("left", "right", 1))
        assert rows == [("b",)]

    def test_copy_sql(self, database):
        for name in ("src", "dst"):
            database.create_relation(RelationSchema(name, ("TEXT", "TEXT")))
        database.insert_rows(
            RelationSchema("src", ("TEXT", "TEXT")), [("a", "b")]
        )
        database.execute(copy_sql("dst", "src", 2))
        assert database.fetch_all("dst") == [("a", "b")]


class TestParameterOrder:
    def test_head_constants_precede_body_constants(self, edges):
        # Head constant 'k' appears in the select list before the WHERE
        # constants; the parameter tuple must follow textual order.
        compiled = compile_rule_body(
            parse_clause("p('k', Y) :- e('a', Y).")
        )
        assert compiled.parameters == ("k", "a")
        rows = set(
            edges.execute(compiled.render(["edges"]), compiled.parameters)
        )
        assert rows == {("k", "b"), ("k", "c")}

    def test_negated_constants_last(self, edges):
        compiled = compile_rule_body(
            parse_clause("p(X) :- e(X, 'b'), not e(X, 'c').")
        )
        assert compiled.parameters == ("b", "c")


class TestSemijoin:
    """``semijoin`` predicates whose variables are bound elsewhere become
    ``IN`` filters; the rows are those of the join."""

    @pytest.fixture
    def guarded(self, edges):
        schema = RelationSchema("guard", ("TEXT",))
        edges.create_relation(schema)
        edges.insert_rows(schema, [("a",), ("c",)])
        return edges

    def run(self, database, text, semijoin):
        clause = parse_clause(text)
        compiled = compile_rule_body(clause, semijoin=semijoin)
        tables = {"m": "guard", "e": "edges", "n": "edges"}
        sql = compiled.render([tables[p] for p in compiled.table_slots])
        return compiled, set(database.execute(sql, compiled.parameters))

    def test_bound_guard_is_a_filter(self, guarded):
        text = "p(X, Y) :- m(X), e(X, Y)."
        joined, rows = self.run(guarded, text, frozenset())
        filtered, same = self.run(guarded, text, frozenset({"m"}))
        assert rows == same == {("a", "b"), ("a", "c"), ("c", "a")}
        assert '"guard" AS' in joined.render(["guard", "edges"])
        assert "(t0.c0) IN (SELECT c0 FROM {1})" in filtered.sql
        assert filtered.table_slots == ("e", "m")
        assert filtered.positive_count == 1

    def test_guard_slot_follows_negated_atoms(self, guarded):
        text = "p(X, Y) :- m(X), e(X, Y), not n(Y, X)."
        __, rows = self.run(guarded, text, frozenset())
        compiled, same = self.run(guarded, text, frozenset({"m"}))
        assert rows == same
        assert compiled.table_slots == ("e", "n", "m")

    def test_guard_constant_is_a_parameter_in_order(self, guarded):
        text = "p(Y) :- e('a', Y), m('c'), not n(Y, 'b')."
        compiled, rows = self.run(guarded, text, frozenset({"m"}))
        assert compiled.parameters == ("a", "b", "c")
        assert rows == {("b",), ("c",)}

    def test_guard_with_an_unbound_variable_stays_a_join(self, guarded):
        compiled, rows = self.run(
            guarded, "p(X, Z) :- m(Z), e(X, Y).", frozenset({"m"})
        )
        assert " IN " not in compiled.sql
        assert rows == {(x, z) for x in "abc" for z in "ac"}

    def test_all_guards_keep_a_join(self, guarded):
        compiled, rows = self.run(guarded, "p(X) :- m(X).", frozenset({"m"}))
        assert " IN " not in compiled.sql
        assert rows == {("a",), ("c",)}
