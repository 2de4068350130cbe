"""Unit tests for QueryProgram execution."""

import pytest

from repro.datalog.evalgraph import build_evaluation_graph, evaluation_order
from repro.datalog.parser import parse_program, parse_query
from repro.dbms.catalog import ExtensionalCatalog
from repro.errors import EvaluationError
from repro.runtime.program import (
    ExecutionResult,
    LfpStrategy,
    QueryProgram,
    program_predicates,
)


def build_program(rules_text, query_text, types, base, **kwargs):
    rules = parse_program(rules_text)
    order = evaluation_order(build_evaluation_graph(rules))
    return QueryProgram(
        query=parse_query(query_text),
        order=tuple(order),
        types=types,
        base_predicates=frozenset(base),
        **kwargs,
    )


@pytest.fixture
def loaded(database):
    catalog = ExtensionalCatalog(database)
    catalog.create_relation("edge", ("TEXT", "TEXT"))
    catalog.insert_facts("edge", [("a", "b"), ("b", "c")])
    return catalog


TYPES = {"edge": ("TEXT", "TEXT"), "anc": ("TEXT", "TEXT")}
ANC_RULES = "anc(X, Y) :- edge(X, Y). anc(X, Y) :- edge(X, Z), anc(Z, Y)."


class TestExecute:
    def test_recursive_query(self, database, loaded):
        program = build_program(ANC_RULES, "?- anc('a', X).", TYPES, ["edge"])
        result = program.execute(database, loaded)
        assert sorted(result.rows) == [("b",), ("c",)]

    def test_pure_base_query(self, database, loaded):
        program = QueryProgram(
            query=parse_query("?- edge('a', X)."),
            order=(),
            types={"edge": ("TEXT", "TEXT")},
            base_predicates=frozenset({"edge"}),
        )
        result = program.execute(database, loaded)
        assert result.rows == [("b",)]

    def test_missing_base_relation_rejected(self, database, loaded):
        program = build_program(
            ANC_RULES, "?- anc('a', X).", TYPES, ["edge", "ghost"]
        )
        with pytest.raises(EvaluationError):
            program.execute(database, loaded)

    def test_counters_populated(self, database, loaded):
        program = build_program(
            ANC_RULES,
            "?- anc('a', X).",
            TYPES,
            ["edge"],
            strategy=LfpStrategy.SEMINAIVE,
        )
        result = program.execute(database, loaded)
        assert result.iterations_by_clique == {"anc": 3}
        assert result.tuples_by_predicate["anc"] == 3
        assert result.total_iterations == 3
        assert "anc" in result.node_seconds

    def test_temporaries_cleaned_up(self, database, loaded):
        program = build_program(ANC_RULES, "?- anc('a', X).", TYPES, ["edge"])
        before = set(database.table_names())
        program.execute(database, loaded)
        assert set(database.table_names()) == before

    def test_goal_rewrites_redirect_answer(self, database, loaded):
        # Evaluate anc but answer the query through an aliased name.
        program = build_program(
            ANC_RULES,
            "?- ancestor('a', X).",
            {**TYPES, "ancestor": ("TEXT", "TEXT")},
            ["edge"],
            goal_rewrites={"ancestor": "anc"},
        )
        result = program.execute(database, loaded)
        assert sorted(result.rows) == [("b",), ("c",)]

    def test_seed_only_predicate_materialised(self, database, loaded):
        # A predicate with no rules, fed purely by seed facts, must still be
        # queryable from rule bodies and the answer join.
        program = QueryProgram(
            query=parse_query("?- seeded(X)."),
            order=(),
            types={"seeded": ("TEXT",)},
            base_predicates=frozenset(),
            seed_facts={"seeded": (("one",), ("two",))},
        )
        result = program.execute(database, loaded)
        assert sorted(result.rows) == [("one",), ("two",)]

    def test_multi_goal_answer_join(self, database, loaded):
        program = build_program(
            ANC_RULES, "?- anc('a', X), anc(X, Y).", TYPES, ["edge"]
        )
        result = program.execute(database, loaded)
        assert sorted(result.rows) == [("b", "c")]

    @pytest.mark.parametrize("strategy", list(LfpStrategy))
    def test_all_strategies_agree(self, database, loaded, strategy):
        program = build_program(
            ANC_RULES, "?- anc(X, Y).", TYPES, ["edge"], strategy=strategy
        )
        result = program.execute(database, loaded)
        assert sorted(result.rows) == [("a", "b"), ("a", "c"), ("b", "c")]


class TestHelpers:
    def test_program_predicates(self):
        rules = parse_program(ANC_RULES)
        order = evaluation_order(build_evaluation_graph(rules))
        assert program_predicates(order) == {"anc"}

    def test_execution_result_defaults(self):
        result = ExecutionResult(rows=[])
        assert result.total_iterations == 0
        assert result.node_seconds == {}
