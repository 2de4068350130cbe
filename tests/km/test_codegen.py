"""Unit tests for the Code Generator and fragment linking."""

import pytest

from repro.datalog.evalgraph import build_evaluation_graph, evaluation_order
from repro.datalog.parser import parse_program, parse_query
from repro.dbms.schema import open_dkb
from repro.km.codegen import compile_and_link, generate_fragment, link_program
from repro.runtime.program import LfpStrategy, QueryProgram
from repro.errors import CodeGenerationError


@pytest.fixture
def database(database):
    """The fresh in-memory DBMS, opened as a D/KB."""
    open_dkb(database)
    return database


RULES = parse_program(
    "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y)."
)
TYPES = {"anc": ("TEXT", "TEXT"), "par": ("TEXT", "TEXT")}


def make_fragment(**overrides):
    order = evaluation_order(build_evaluation_graph(RULES))
    arguments = dict(
        query=parse_query("?- anc('a', X)."),
        order=order,
        types=TYPES,
        base_predicates=frozenset({"par"}),
        strategy=LfpStrategy.SEMINAIVE,
        optimized=False,
        goal_rewrites={},
        seed_facts={},
    )
    arguments.update(overrides)
    return generate_fragment(**arguments)


class TestGenerate:
    def test_fragment_is_valid_python(self):
        source = make_fragment()
        compile(source, "<test>", "exec")

    def test_fragment_contains_sql_per_rule(self):
        source = make_fragment()
        assert "SELECT DISTINCT" in source

    def test_fragment_distinguishes_rule_kinds(self):
        source = make_fragment()
        assert "'recursive_rules'" in source
        assert "'exit_rules'" in source

    def test_fragment_is_deterministic(self):
        assert make_fragment() == make_fragment()


class TestLink:
    def test_compile_and_link_round_trip(self):
        program = compile_and_link(make_fragment())
        assert isinstance(program, QueryProgram)
        assert program.strategy is LfpStrategy.SEMINAIVE
        assert program.base_predicates == frozenset({"par"})
        assert len(program.order) == 1

    def test_round_trip_preserves_rules(self):
        program = compile_and_link(make_fragment())
        clique = program.order[0]
        assert len(clique.recursive_rules) == 1
        assert len(clique.exit_rules) == 1

    def test_round_trip_preserves_query(self):
        program = compile_and_link(make_fragment())
        assert str(program.query) == "?- anc('a', X)."
        assert [v.name for v in program.query.answer_variables] == ["X"]

    def test_round_trip_preserves_seeds(self):
        source = make_fragment(seed_facts={"m_anc__bf": (("a",),)})
        program = compile_and_link(source)
        assert program.seed_facts == {"m_anc__bf": (("a",),)}

    def test_linked_program_executes(self, database):
        from repro.dbms.catalog import ExtensionalCatalog

        catalog = ExtensionalCatalog(database)
        catalog.create_relation("par", ("TEXT", "TEXT"))
        catalog.insert_facts("par", [("a", "b"), ("b", "c")])
        program = compile_and_link(make_fragment())
        result = program.execute(database, catalog)
        assert sorted(result.rows) == [("b",), ("c",)]

    def test_bad_fragment_rejected(self):
        with pytest.raises(CodeGenerationError):
            compile_and_link("x = 1\n")

    def test_unknown_node_kind_rejected(self):
        with pytest.raises(CodeGenerationError):
            link_program(
                {
                    "query": "?- p(X).",
                    "answer_variables": ["X"],
                    "nodes": [{"kind": "mystery"}],
                    "types": {},
                    "base_predicates": [],
                    "strategy": "seminaive",
                    "optimized": False,
                    "goal_rewrites": {},
                    "seed_facts": {},
                }
            )
