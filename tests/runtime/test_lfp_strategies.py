"""Unit tests for the two clique LFP iteration strategies.

Both must compute the same least fixed point; they differ only in how
they get there (and what that costs).
"""

import pytest

from repro.runtime.context import (
    PHASE_RHS_EVAL,
    PHASE_TEMP_TABLES,
    PHASE_TERMINATION,
)
from repro.runtime.naive import evaluate_clique_naive
from repro.runtime.seminaive import evaluate_clique_seminaive

from .conftest import CYCLE_EDGES, EDGES, closure_of

STRATEGIES = [
    evaluate_clique_naive,
    evaluate_clique_seminaive,
]


@pytest.mark.parametrize("evaluate", STRATEGIES)
class TestAllStrategies:
    def test_chain_closure(self, edge_context, ancestor_clique, evaluate):
        result = evaluate(edge_context, ancestor_clique)
        rows = set(edge_context.database.fetch_all(edge_context.table_of("anc")))
        assert rows == closure_of(EDGES)
        assert result.tuples_by_predicate == {"anc": len(rows)}

    def test_cycle_terminates(self, cycle_context, ancestor_clique, evaluate):
        evaluate(cycle_context, ancestor_clique)
        rows = set(
            cycle_context.database.fetch_all(cycle_context.table_of("anc"))
        )
        assert rows == closure_of(CYCLE_EDGES)
        assert len(rows) == 9  # complete graph including self-loops

    def test_empty_base_relation(self, database, ancestor_clique, evaluate):
        from .conftest import make_context

        context = make_context(database, [])
        result = evaluate(context, ancestor_clique)
        assert result.total_tuples == 0

    def test_iterations_recorded(self, edge_context, ancestor_clique, evaluate):
        result = evaluate(edge_context, ancestor_clique)
        assert result.iterations >= 2
        assert edge_context.counters.iterations_by_clique["anc"] == result.iterations

    def test_seed_rows_participate(self, edge_context, ancestor_clique, evaluate):
        # Seeding anc with ('z', 'a') must produce z's closure too.
        edge_context.seed_rows["anc"] = (("z", "a"),)
        evaluate(edge_context, ancestor_clique)
        rows = set(edge_context.database.fetch_all(edge_context.table_of("anc")))
        expected = closure_of(EDGES) | {("z", "a")}
        # anc(z,a) is a seed fact, not an edge, so the recursive rule
        # edge(X,Z), anc(Z,Y) does not extend it leftward; it stays as-is.
        assert rows == expected

    def test_result_has_set_semantics(self, edge_context, ancestor_clique, evaluate):
        evaluate(edge_context, ancestor_clique)
        rows = edge_context.database.fetch_all(edge_context.table_of("anc"))
        assert len(rows) == len(set(rows))


class TestIterationCounts:
    def test_seminaive_converges_in_depth_iterations(
        self, edge_context, ancestor_clique
    ):
        result = evaluate_clique_seminaive(edge_context, ancestor_clique)
        # Chain of 3 edges: paths of length 1..3 then an empty delta.
        assert result.iterations == 4

    def test_naive_converges_in_depth_iterations(
        self, edge_context, ancestor_clique
    ):
        result = evaluate_clique_naive(edge_context, ancestor_clique)
        assert result.iterations == 4


class TestPhaseAttribution:
    def test_naive_touches_all_phases(self, edge_context, ancestor_clique):
        stats = edge_context.database.statistics
        stats.reset()
        evaluate_clique_naive(edge_context, ancestor_clique)
        phases = stats.phases()
        for name in (PHASE_TEMP_TABLES, PHASE_RHS_EVAL, PHASE_TERMINATION):
            assert name in phases, name
            assert phases[name].statements > 0

    def test_seminaive_touches_all_phases(self, edge_context, ancestor_clique):
        stats = edge_context.database.statistics
        stats.reset()
        evaluate_clique_seminaive(edge_context, ancestor_clique)
        phases = stats.phases()
        for name in (PHASE_TEMP_TABLES, PHASE_RHS_EVAL, PHASE_TERMINATION):
            assert name in phases, name

    def test_naive_does_more_rhs_work(self, database):
        # On the same workload, naive issues at least as many RHS statements
        # (it recomputes every rule every iteration).
        from .conftest import make_context
        from repro.datalog.pcg import find_cliques
        from .conftest import ANCESTOR_PROGRAM

        edges = [(f"n{i}", f"n{i + 1}") for i in range(8)]
        clique = find_cliques(ANCESTOR_PROGRAM)[0]

        context = make_context(database, edges)
        database.statistics.reset()
        evaluate_clique_naive(context, clique)
        naive_stmts = database.statistics.phase(PHASE_RHS_EVAL).statements

        from repro.dbms.engine import Database

        with Database() as second:
            context2 = make_context(second, edges)
            second.statistics.reset()
            evaluate_clique_seminaive(context2, clique)
            semi_stmts = second.statistics.phase(PHASE_RHS_EVAL).statements

        assert naive_stmts >= semi_stmts


class TestMutualRecursion:
    def test_even_odd_paths(self, database):
        """Mutually recursive predicates evaluated as one clique."""
        from repro.datalog.parser import parse_program
        from repro.datalog.pcg import find_cliques
        from repro.dbms.schema import RelationSchema
        from repro.runtime.context import EvaluationContext

        program = parse_program(
            """
            even(X, Y) :- edge(X, Y), edge(Y, Y).
            even(X, Y) :- edge(X, Z), odd(Z, Y).
            odd(X, Y) :- edge(X, Y).
            odd(X, Y) :- edge(X, Z), even(Z, Y).
            """
        )
        cliques = find_cliques(program)
        assert len(cliques) == 1
        assert cliques[0].predicates == frozenset({"even", "odd"})

        schema = RelationSchema("t_edge", ("TEXT", "TEXT"))
        database.create_relation(schema)
        database.insert_rows(schema, [("a", "b"), ("b", "c"), ("c", "d")])
        for evaluate in STRATEGIES:
            context = EvaluationContext(
                database,
                {"edge": "t_edge"},
                {
                    "edge": ("TEXT", "TEXT"),
                    "even": ("TEXT", "TEXT"),
                    "odd": ("TEXT", "TEXT"),
                },
            )
            evaluate(context, cliques[0])
            odd = set(database.fetch_all(context.table_of("odd")))
            even = set(database.fetch_all(context.table_of("even")))
            # odd = paths of odd length, even = paths of even length >= 2.
            assert odd == {("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")}
            assert even == {("a", "c"), ("b", "d")}
            context.cleanup()
