"""The default strategy's one-statement plan: shape, guards, statement stream.

The default ``optimize="auto"`` rewrites bound recursive queries, so most
plans here are magic-sets plans; ``optimize=False`` pins the plain ones.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import LfpStrategy, Testbed, TestbedConfig
from repro.runtime.lfp_cte import MAX_REFERENCE_PATHS, fuse_program
from repro.workloads.queries import ancestor_query, make_ancestor_testbed
from repro.workloads.relations import full_binary_trees, tree_node

CHAIN = 40
CHAIN_RULES = "\n".join(
    [f"p{i}(X, Y) :- p{i + 1}(X, Z), step(Z, Y)." for i in range(CHAIN - 1)]
    + [f"p{CHAIN - 1}(X, Y) :- step(X, Y)."]
)
STEP = [(f"n{i}", f"n{(i + 1) % 8}") for i in range(8)]
ANCESTOR = (
    "anc(X, Y) :- step(X, Y). anc(X, Y) :- step(X, Z), anc(Z, Y)."
)
DDL = {"CREATE", "DROP", "ALTER"}


def make_testbed(rules, trace=False):
    tb = Testbed(TestbedConfig(trace=trace))
    tb.define(rules)
    tb.define_base_relation("step", ("TEXT", "TEXT"))
    tb.load_facts("step", STEP)
    return tb


def after_stamp(statements):
    """Statement records after the last plan-cache stamp read."""
    stamps = [i for i, r in enumerate(statements) if "MAX(ruleid)" in r.sql]
    return statements[stamps[-1] + 1:]


class TestWarmStatementStream:
    @pytest.mark.parametrize(
        "rules, query, optimize, rewritten",
        [
            (CHAIN_RULES, "?- p0('{}', Y).", "auto", False),
            (ANCESTOR, "?- anc('{}', Y).", "auto", True),
            (ANCESTOR, "?- anc(X, '{}').", "auto", True),
            (ANCESTOR, "?- anc('{}', Y).", False, False),
        ],
        ids=["chain40", "ancestor-magic", "ancestor-target-magic", "ancestor-plain"],
    )
    def test_one_evaluation_statement_and_no_ddl(
        self, rules, query, optimize, rewritten
    ):
        with make_testbed(rules, trace=True) as tb:
            cold = tb.query(query.format("n0"), optimize=optimize)
            tracer = tb.tracer
            tracer.statements.clear()
            warm = tb.query(query.format("n3"), optimize=optimize)
            assert warm.compilation.cached and not cold.compilation.cached
            assert warm.compilation.optimized is rewritten
            stream = after_stamp(list(tracer.statements))
            # One dictionary probe per base relation, then the plan itself.
            assert [r.kind for r in stream] == ["SELECT", "WITH"]
            assert "epredicates" in stream[0].sql
            assert not DDL & {r.kind for r in tracer.statements}
            # Same form, same text: the prepared statement is reused.
            assert stream[-1].cache_hit is True
            assert warm.execution.strategy_by_clique == dict.fromkeys(
                warm.execution.iterations_by_clique, "lfp_cte"
            )

    def test_chain_answers_match_seminaive(self):
        with make_testbed(CHAIN_RULES) as tb:
            for node, __ in STEP:
                text = f"?- p0('{node}', Y)."
                fused = tb.query(text)
                loop = tb.query(text, strategy=LfpStrategy.SEMINAIVE)
                assert fused.rows == loop.rows and len(fused.rows) == 1
                assert fused.compilation.program.fused is not None

    @pytest.mark.parametrize("optimize", ["auto", False])
    def test_rebind_carries_the_statement(self, optimize):
        with make_testbed(ANCESTOR) as tb:
            first = tb.query("?- anc('n0', Y).", optimize=optimize)
            second = tb.query("?- anc('n5', Y).", optimize=optimize)
            assert first.compilation.program.query != second.compilation.program.query
            assert second.compilation.program.fused is first.compilation.program.fused
            assert second.compilation.optimized is (optimize == "auto")
            # Both rows come from the one statement, each seeded by its query.
            assert sorted(first.rows) == sorted((f"n{i}",) for i in range(8))
            assert len(second.rows) == 8

    def test_rewritten_statement_names_no_query_constant(self):
        with make_testbed(ANCESTOR) as tb:
            fused = tb.compile_query("?- anc('n0', Y).").program.fused
            assert fused.seed_slots == (fused.parameters.index(None),)
            assert "n0" not in fused.with_clause and "n0" not in fused.parameters
            assert "IN (SELECT c0 FROM \"d_m_anc__bf\")" in fused.with_clause

    def test_explicit_seminaive_keeps_its_stream(self):
        with make_testbed(ANCESTOR) as tb:
            result = tb.query("?- anc('n0', Y).", strategy=LfpStrategy.SEMINAIVE)
            assert result.compilation.program.fused is None
            assert result.execution.total_iterations > 1
            assert "CREATE" in tb.database.statistics.total.by_kind


class TestMagicGuards:
    """Magic guards are semi-joins, so a rewritten plan never scans its magic
    set once per row the recursion queues."""

    @staticmethod
    def vm_steps(tb, program):
        """SQLite virtual-machine steps one execution takes (in 100s)."""
        steps = [0]

        def tick():
            steps[0] += 1
            return 0

        connection = tb.database._connection
        connection.set_progress_handler(tick, 100)
        try:
            rows = program.execute(tb.database, tb.catalog).rows
        finally:
            connection.set_progress_handler(None, 0)
        return steps[0], rows

    def test_root_bound_tree_stays_near_the_plain_plan(self):
        relation = full_binary_trees(1, 9)
        with make_ancestor_testbed(relation) as tb:
            query = ancestor_query(tree_node("t", 1))
            plain = tb.compile_query(query, optimize=False).program
            magic = tb.compile_query(query).program
            assert magic.optimized and magic.fused is not None
            plain_steps, plain_rows = self.vm_steps(tb, plain)
            magic_steps, magic_rows = self.vm_steps(tb, magic)
            assert sorted(magic_rows) == sorted(plain_rows)
            # Joined, the guard costs ~200x the plain plan's steps here.
            assert magic_steps < 2 * plain_steps

    def test_guard_joins_when_its_variables_are_unbound(self):
        # m_anc__bb(Z, Y) :- m_anc__fb(Y), step(X, Z): Y only in the guard.
        with make_testbed(ANCESTOR) as tb:
            fused = tb.compile_query("?- anc(X, 'n1').").program.fused
            assert '"d_m_anc__fb" AS t0' in fused.with_clause


class TestReferenceExpansion:
    @staticmethod
    def diamond(depth):
        return "\n".join(
            [f"p{i}(X, Y) :- p{i + 1}(X, Z), p{i + 1}(Z, Y)." for i in range(depth)]
            + [f"p{depth}(X, Y) :- e(X, Y)."]
        )

    def test_deep_diamond_falls_back_and_answers(self):
        with Testbed() as tb:
            tb.define(self.diamond(24))
            tb.define_base_relation("e", ("TEXT", "TEXT"))
            tb.load_facts("e", [(f"n{i}", f"n{(i + 1) % 16}") for i in range(16)])
            result = tb.query('?- p0("n0", Y).')
            assert result.rows == [("n0",)]
            assert result.compilation.program.fused is None

    def test_bound_is_on_reference_paths(self):
        # Each level doubles the paths to the base relation: the answer of
        # a depth-d diamond expands to 2**d references.
        def fused(depth):
            with Testbed() as tb:
                tb.define(self.diamond(depth))
                tb.define_base_relation("e", ("TEXT", "TEXT"))
                return tb.compile_query("?- p0(X, Y).").program.fused

        assert MAX_REFERENCE_PATHS == 2**6
        assert fused(6) is not None
        assert fused(7) is None


class TestCompoundSelectLimit:
    RULES = "\n".join(
        [f"p(X, Y) :- b(X, Y, 'k{i}')." for i in range(501)]
        + ["p(X, Y) :- p(X, Z), e(Z, Y)."]
    )

    def test_default_query_past_the_limit_falls_back(self):
        with Testbed() as tb:
            tb.define(self.RULES)
            tb.define_base_relation("b", ("TEXT", "TEXT", "TEXT"))
            tb.define_base_relation("e", ("TEXT", "TEXT"))
            tb.load_facts("b", [("a", "b", "k0"), ("c", "d", "k500")])
            tb.load_facts("e", [("b", "c"), ("d", "e")])
            result = tb.query("?- p(X, Y).")
            loop = tb.query("?- p(X, Y).", strategy=LfpStrategy.SEMINAIVE)
            assert sorted(result.rows) == sorted(loop.rows) == [
                ("a", "b"), ("a", "c"), ("c", "d"), ("c", "e"),
            ]
            assert "compound-select" in result.execution.strategy_by_clique["p"]

    def test_fused_statement_checks_the_limit(self, monkeypatch):
        with make_testbed(ANCESTOR) as tb:
            backend = type(tb.database.backend)
            program = tb.compile_query("?- anc(X, Y).").program
            assert program.fused.max_terms == 2
            monkeypatch.setattr(
                backend,
                "capabilities",
                dataclasses.replace(backend.capabilities, max_compound_select=1),
            )
            result = program.execute(tb.database, tb.catalog)
            assert len(result.rows) == 64
            assert "compound-select" in result.strategy_by_clique["anc"]


def test_fuse_program_rejects_ineligible_cliques():
    with make_testbed(
        "anc(X, Y) :- step(X, Y). anc(X, Y) :- anc(X, Z), anc(Z, Y)."
    ) as tb:
        program = tb.compile_query("?- anc(X, Y).").program
        assert program.fused is None
        assert fuse_program(
            program.query,
            program.order,
            program.types,
            program.base_predicates,
            program.seed_facts,
            program.goal_rewrites,
        ) is None
        result = program.execute(tb.database, tb.catalog)
        assert "non-linear" in result.strategy_by_clique["anc"]
