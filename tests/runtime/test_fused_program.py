"""The default strategy's one-statement plan: shape, guards, statement stream.

The default ``optimize="auto"`` rewrites bound recursive queries, so most
plans here are magic-sets plans; ``optimize=False`` pins the plain ones.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro import LfpStrategy, Testbed, TestbedConfig
from repro.runtime.lfp_cte import MAX_REFERENCE_PATHS, fuse_program
from repro.workloads.queries import (
    ANCESTOR_RULES,
    SAME_GENERATION_RULES,
    ancestor_query,
    load_parent_relation,
    make_ancestor_testbed,
)
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


def vm_steps(tb, program, interval=100):
    """SQLite virtual-machine steps one execution takes, in ``interval``s."""
    steps = [0]

    def tick():
        steps[0] += 1
        return 0

    connection = tb.database._connection
    connection.set_progress_handler(tick, interval)
    try:
        rows = program.execute(tb.database, tb.catalog).rows
    finally:
        connection.set_progress_handler(None, 0)
    return steps[0], rows


def make_testbed(rules, trace=False):
    tb = Testbed(TestbedConfig(trace=trace))
    tb.define(rules)
    tb.define_base_relation("step", ("TEXT", "TEXT"))
    tb.load_facts("step", STEP)
    return tb


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
            stream = list(tracer.statements)
            # One catalog probe (plan stamp and views), then the plan
            # itself: the base relations were confirmed under this stamp.
            assert [r.kind for r in stream] == ["SELECT", "WITH"]
            assert "MAX(ruleid)" in stream[0].sql and "mviews" in stream[0].sql
            assert not DDL & {r.kind for r in stream}
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


class TestStatementText:
    """A one-predicate clique is the degenerate tagged union: its statement
    text stays exactly the one recorded before mutual cliques fused."""

    EXPECTED = json.loads(
        (Path(__file__).with_name("fused_statements.json")).read_text()
    )
    PROGRAMS = {
        "ancestor": (ANCESTOR_RULES, "ancestor", ("parent",)),
        "same_generation": (
            SAME_GENERATION_RULES, "same_generation", ("flat", "up", "down")
        ),
        "chain40": (CHAIN_RULES, "p0", ("step",)),
    }
    GOALS = {"unbound": "(X, Y)", "source": "('n0', Y)", "target": "(X, 'n0')"}

    @pytest.mark.parametrize("binding", sorted(GOALS))
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_with_clause_is_unchanged(self, name, binding):
        rules, goal, bases = self.PROGRAMS[name]
        with Testbed() as tb:
            tb.define(rules)
            for base in bases:
                tb.define_base_relation(base, ("TEXT", "TEXT"))
            query = f"?- {goal}{self.GOALS[binding]}."
            fused = tb.compile_query(query).program.fused
            assert fused.with_clause == self.EXPECTED[f"{name}.{binding}"]


class TestTaggedUnion:
    """A mutually recursive clique: one CTE over the members' tagged union,
    then one plain CTE per member."""

    EVEN_ODD = (
        "odd(X, Y) :- step(X, Y)."
        "odd(X, Y) :- step(X, Z), even(Z, Y)."
        "even(X, Y) :- step(X, Z), odd(Z, Y)."
    )
    MIXED = (
        "p(X, Y) :- step(X, Y)."
        "p(X, Y) :- step(X, Z), r(Z, Y)."
        "q(Y) :- p(X, Y)."
        "r(X, Y) :- q(X), step(X, Y)."
    )

    def test_union_then_one_cte_per_member(self):
        with make_testbed(self.EVEN_ODD) as tb:
            fused = tb.compile_query("?- even(X, Y).").program.fused
            assert fused.cliques == ("even+odd",)
            assert fused.max_terms == 3
            assert fused.tables["even"] == "d_even"
            clause = fused.with_clause
            assert clause.startswith('WITH RECURSIVE "k_even+odd"(tag, c0, c1) AS (')
            assert clause.count('"k_even+odd" AS t') == 2  # one per recursive arm
            assert (
                '"d_even"(c0, c1) AS (SELECT c0, c1 FROM "k_even+odd" '
                "WHERE tag = 'even')" in clause
            )
            assert "t1.tag = 'odd'" in clause and "t1.tag = 'even'" in clause

    def test_narrower_member_is_padded_with_null(self):
        with make_testbed(self.MIXED) as tb:
            fused = tb.compile_query("?- q(X).").program.fused
            clause = fused.with_clause
            assert '"k_p+q+r"(tag, c0, c1)' in clause
            assert "SELECT 'q' AS tag, t0.c1 AS c0, NULL AS c1 FROM" in clause
            assert '"d_q"(c0) AS (SELECT c0 FROM "k_p+q+r" WHERE tag = \'q\')' in clause
            result = tb.query("?- q(X).")
            assert sorted(result.rows) == sorted((f"n{i}",) for i in range(8))

    def test_guard_over_a_clique_member_stays_a_join(self):
        # The magic predicates m_even__bf/m_odd__bf form their own clique:
        # a guard over a member may not become a subquery of the union.
        with make_testbed(self.EVEN_ODD) as tb:
            fused = tb.compile_query("?- even('n0', Y).").program.fused
            assert fused.cliques == ("m_even__bf+m_odd__bf", "even__bf+odd__bf")
            assert 'FROM "k_m_even__bf+m_odd__bf")' not in fused.with_clause
            assert 'IN (SELECT c0 FROM "d_m_even__bf")' in fused.with_clause

    def test_rebind_carries_the_union_statement(self):
        with make_testbed(self.EVEN_ODD) as tb:
            first = tb.query("?- even('n0', Y).")
            second = tb.query("?- even('n5', Y).")
            assert second.compilation.program.fused is first.compilation.program.fused
            # Eight steps round the ring: an even walk ends on an even offset.
            assert sorted(first.rows) == [(f"n{i}",) for i in range(0, 8, 2)]
            assert sorted(second.rows) == sorted((f"n{(5 + i) % 8}",) for i in range(0, 8, 2))

    def test_compound_limit_counts_every_member_arm(self, monkeypatch):
        with make_testbed(self.EVEN_ODD) as tb:
            program = tb.compile_query("?- odd(X, Y).").program
            backend = type(tb.database.backend)
            monkeypatch.setattr(
                backend,
                "capabilities",
                dataclasses.replace(backend.capabilities, max_compound_select=2),
            )
            assert not program.fused.runs_on(tb.database)
            result = program.execute(tb.database, tb.catalog)
            assert len(result.rows) == 32
            assert "compound-select" in result.strategy_by_clique["even+odd"]

    def test_union_member_is_one_reference_path(self):
        # A diamond over a union member doubles per level from 1, as over a
        # base relation: the union is computed once, however many read it.
        def fused(depth):
            rules = self.EVEN_ODD + "\n".join(
                [f"p{i}(X, Y) :- p{i + 1}(X, Z), p{i + 1}(Z, Y)." for i in range(depth)]
                + [f"p{depth}(X, Y) :- even(X, Y)."]
            )
            with make_testbed(rules) as tb:
                return tb.compile_query("?- p0(X, Y).").program.fused

        assert fused(5) is not None
        assert fused(6) is None

    def test_negation_in_a_mutual_clique_does_not_fuse(self):
        rules = self.EVEN_ODD.replace(
            "even(X, Y) :- step(X, Z), odd(Z, Y).",
            "even(X, Y) :- step(X, Z), odd(Z, Y), not step(X, Y).",
        )
        with make_testbed(rules) as tb:
            result = tb.query("?- even(X, Y).")
            assert result.compilation.program.fused is None
            assert "negated" in result.execution.strategy_by_clique["even+odd"]
            assert len(result.rows) == 32


class TestPlainSipOrder:
    """A plain plan bound at its goal joins each non-recursive body in SIP
    order, so SQLite's outer loop starts at the binding."""

    @pytest.mark.parametrize(
        "query", ["?- p0('{}', Y).", "?- p0(X, '{}')."], ids=["source", "target"]
    )
    def test_warm_chain_statement_starts_at_the_binding(self, query):
        with make_testbed(CHAIN_RULES) as tb:
            tb.query(query.format("n0"))
            warm = tb.query(query.format("n3"))
            program = warm.compilation.program
            assert warm.compilation.cached and not program.optimized
            assert "CROSS JOIN" in program.fused.with_clause
            # One dictionary probe and the statement.  Left to itself,
            # SQLite began the 40-way join with a full index scan in the
            # middle of the chain: over 2 200 steps for the statement alone.
            steps, rows = vm_steps(tb, program, interval=1)
            assert len(rows) == 1
            assert steps <= 600

    def test_conflicting_adornments_keep_the_text(self):
        # p binds q's first argument in one rule and its second in the
        # other: one CTE cannot be ordered for both.
        rules = (
            "p(X, Y) :- q(X, Z), step(Z, Y). p(X, Y) :- step(X, Z), q(Y, Z)."
            "q(X, Y) :- step(X, Z), step(Z, Y)."
        )
        with make_testbed(rules) as tb:
            clause = tb.compile_query("?- p('n0', Y).").program.fused.with_clause
            q_body, p_body = clause.split('"d_p"')
            assert "CROSS JOIN" not in q_body and "CROSS JOIN" in p_body
            assert sorted(tb.query("?- p('n0', Y).").rows) == [("n3",), ("n7",)]

    def test_what_a_recursive_clique_calls_keeps_the_text(self):
        # hop is called by the clique, whose CTE is computed whole, and
        # bound by top: it keeps its text; top's body is ordered.
        rules = (
            "anc(X, Y) :- hop(X, Y). anc(X, Y) :- hop(X, Z), anc(Z, Y)."
            "hop(X, Y) :- step(X, Z), step(Z, Y)."
            "top(X, Y) :- anc(X, Z), hop(Z, Y)."
        )
        with make_testbed(rules) as tb:
            clause = tb.compile_query("?- top('n0', Y).", optimize=False).program.fused.with_clause
            below, top = clause.split('"d_top"')
            assert "CROSS JOIN" not in below
            assert '"d_anc" AS t0 CROSS JOIN "d_hop" AS t1' in top
            rows = tb.query("?- top('n0', Y).", optimize=False).rows
            assert sorted(rows) == [(f"n{i}",) for i in range(0, 8, 2)]


class TestMagicGuards:
    """Magic guards are semi-joins, so a rewritten plan never scans its magic
    set once per row the recursion queues."""

    def test_root_bound_tree_stays_near_the_plain_plan(self):
        relation = full_binary_trees(1, 9)
        with make_ancestor_testbed(relation) as tb:
            query = ancestor_query(tree_node("t", 1))
            plain = tb.compile_query(query, optimize=False).program
            magic = tb.compile_query(query).program
            assert magic.optimized and magic.fused is not None
            plain_steps, plain_rows = vm_steps(tb, plain)
            magic_steps, magic_rows = vm_steps(tb, magic)
            assert sorted(magic_rows) == sorted(plain_rows)
            # Joined, the guard costs ~200x the plain plan's steps here.
            assert magic_steps < 2 * plain_steps

    def test_guard_joins_when_its_variables_are_unbound(self):
        # step('n0', Z) and anc(Z, Y) tie on one bound argument, so the SIP
        # keeps text order: m_anc__bb(Z, Y) :- m_top__b(Y), step('n0', Z),
        # with Y only in the guard.
        with make_testbed(ANCESTOR + "top(Y) :- step('n0', Z), anc(Z, Y).") as tb:
            fused = tb.compile_query("?- top('n1').").program.fused
            assert '"d_m_top__b" AS t0' in fused.with_clause

    def test_mutual_clique_stays_near_the_plain_plan(self):
        # p/q/r: left to right, p's fb rule called r bb through the cross
        # product m_r__bb(Z, Y) :- m_p__fb(Y), parent(X, Z), ~200x the
        # plain plan's steps.  Most-bound first it calls r fb.
        rules = (
            "p(X, Y) :- parent(X, Y). p(X, Y) :- parent(X, Z), r(Z, Y)."
            "q(Y) :- p(X, Y). r(X, Y) :- q(X), parent(X, Y)."
        )
        with Testbed() as tb:
            tb.define(rules)
            load_parent_relation(tb, full_binary_trees(1, 8))
            query = "?- p('t1', Y)."
            plain = tb.compile_query(query, optimize=False).program
            default = tb.compile_query(query).program
            assert default.optimized and default.fused is not None
            plain_steps, plain_rows = vm_steps(tb, plain)
            default_steps, default_rows = vm_steps(tb, default)
            assert sorted(default_rows) == sorted(plain_rows)
            assert default_steps < 2 * plain_steps


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
