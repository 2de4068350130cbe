"""One clique inside the fused statement: eligibility, shapes, seeds, fallback.

Each case compiles a plain (unrewritten) plan, fuses it with
:func:`fuse_program` — optionally with seed rows — and runs the statement.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import Testbed
from repro.datalog.parser import parse_program
from repro.datalog.pcg import find_cliques
from repro.runtime.lfp_cte import cte_eligibility, fuse_program

from .conftest import CYCLE_EDGES, EDGES, closure_of

LEFT = "anc(X, Y) :- edge(X, Y). anc(X, Y) :- edge(X, Z), anc(Z, Y)."
RIGHT = "anc(X, Y) :- edge(X, Y). anc(X, Y) :- anc(X, Z), edge(Z, Y)."
EVEN_ODD = (
    "odd(X, Y) :- edge(X, Y)."
    "odd(X, Y) :- edge(X, Z), even(Z, Y)."
    "even(X, Y) :- edge(X, Z), odd(Z, Y)."
)


def clique_of(program_text: str):
    cliques = find_cliques(parse_program(program_text))
    assert len(cliques) == 1
    return cliques[0]


def run_fused(rules, edges, query="?- anc(X, Y).", seed_facts=None):
    """The fused plan's answer rows and execution result, with its statistics."""
    with Testbed() as tb:
        tb.define(rules)
        tb.define_base_relation("edge", ("TEXT", "TEXT"))
        tb.load_facts("edge", edges)
        program = tb.compile_query(query, optimize=False).program
        seed_facts = seed_facts or {}
        fused = fuse_program(
            program.query,
            program.order,
            program.types,
            program.base_predicates,
            seed_facts,
            program.goal_rewrites,
        )
        assert fused is not None
        program = dataclasses.replace(program, seed_facts=seed_facts, fused=fused)
        statistics = tb.database.statistics
        statistics.reset()
        result = program.execute(tb.database, tb.catalog)
        return set(result.rows), result, statistics


class TestEligibility:
    def test_linear_single_predicate_qualifies(self):
        check = cte_eligibility(clique_of(LEFT))
        assert check
        assert "linear" in check.reason

    def test_linear_mutual_clique_qualifies(self):
        assert cte_eligibility(clique_of(EVEN_ODD))

    def test_negation_rejected(self):
        clique = clique_of(
            "p(X, Y) :- edge(X, Y)."
            "p(X, Y) :- edge(X, Z), p(Z, Y), not blocked(X, Y)."
        )
        check = cte_eligibility(clique)
        assert not check
        assert "negated" in check.reason

    def test_backend_limit_counts_every_members_rules_and_seeds(
        self, database, monkeypatch
    ):
        backend = type(database.backend)
        monkeypatch.setattr(
            backend,
            "capabilities",
            dataclasses.replace(backend.capabilities, max_compound_select=4),
        )
        clique = clique_of(EVEN_ODD)
        assert cte_eligibility(clique, database, seed_rows=1)
        check = cte_eligibility(clique, database, seed_rows=2)
        assert not check
        assert "5 compound-select terms" in check.reason

    @pytest.mark.parametrize(
        "rules",
        [
            "p(X, Y) :- edge(X, Y). p(X, Y) :- p(X, Z), p(Z, Y).",
            # Two clique atoms, each of a different member.
            "p(X, Y) :- edge(X, Y). p(X, Y) :- p(X, Z), q(Z, Y)."
            "q(X, Y) :- p(X, Y).",
        ],
        ids=["self", "mutual"],
    )
    def test_nonlinear_rule_rejected(self, rules):
        check = cte_eligibility(clique_of(rules))
        assert not check
        assert "non-linear" in check.reason


class TestFusedClique:
    @pytest.mark.parametrize("rules", [LEFT, RIGHT], ids=["left", "right"])
    def test_chain_closure(self, rules):
        rows, result, __ = run_fused(rules, EDGES)
        assert rows == closure_of(EDGES)
        assert result.iterations_by_clique == {"anc": 1}
        assert result.strategy_by_clique == {"anc": "lfp_cte"}

    def test_cycle_terminates(self):
        # UNION (set) semantics is what guarantees termination here.
        rows, __, __ = run_fused(LEFT, CYCLE_EDGES)
        assert rows == closure_of(CYCLE_EDGES)

    def test_empty_base_relation(self):
        rows, __, __ = run_fused(LEFT, [])
        assert rows == set()

    def test_seed_rows_participate(self):
        # anc(z,a) is a seed fact, not an edge, so edge(X,Z), anc(Z,Y) does
        # not extend it leftward; it must survive in the result as-is.
        rows, __, __ = run_fused(LEFT, EDGES, seed_facts={"anc": (("z", "a"),)})
        assert rows == closure_of(EDGES) | {("z", "a")}

    def test_seed_rows_feed_the_recursion(self):
        # With right-linear recursion anc(X,Z), edge(Z,Y) a seed anc(z,a)
        # genuinely extends: z reaches everything a reaches.
        rows, __, __ = run_fused(RIGHT, EDGES, seed_facts={"anc": (("z", "a"),)})
        assert rows == closure_of(EDGES) | {("z", t) for t in ("a", "b", "c", "d")}

    def test_seed_rows_of_a_mutual_member(self):
        # odd(z,a) seeds the union under odd's tag only: even gains z's
        # one-step extensions of it, and nothing else changes.
        plain, __, __ = run_fused(EVEN_ODD, EDGES, "?- even(X, Y).")
        seeded, __, __ = run_fused(
            EVEN_ODD, [("y", "z"), *EDGES], "?- even(X, Y).",
            seed_facts={"odd": (("z", "a"),)},
        )
        assert plain == {("a", "c"), ("b", "d")}
        assert seeded == plain | {("y", "a")}

    def test_mutual_clique_on_a_cycle_terminates(self):
        # Round a 3-cycle every node reaches every node by some odd walk.
        rows, __, __ = run_fused(EVEN_ODD, CYCLE_EDGES, "?- odd(X, Y).")
        assert rows == {(x, y) for x in "abc" for y in "abc"}

    def test_seed_rows_of_both_members(self):
        # Each seed enters under its own tag; neither leaks into the other.
        rows, __, __ = run_fused(
            EVEN_ODD, [], "?- even(X, Y).",
            seed_facts={"even": (("s", "t"),), "odd": (("u", "v"),)},
        )
        assert rows == {("s", "t")}

    def test_one_statement(self):
        __, __, statistics = run_fused(EVEN_ODD, EDGES, "?- odd(X, Y).")
        assert statistics.phase("rhs_eval").statements == 1
        assert "termination" not in statistics.phases()

    @pytest.mark.parametrize(
        "rules, query",
        [
            ("anc(X, Y) :- edge(X, Z), anc(Z, Y).", "?- anc(X, Y)."),
            (
                "p(X, Y) :- edge(X, Z), q(Z, Y). q(X, Y) :- p(X, Y).",
                "?- q(X, Y).",
            ),
        ],
        ids=["single", "mutual"],
    )
    def test_no_anchor_is_empty(self, rules, query):
        # No exit rules and no seeds: nothing can anchor the recursion.
        rows, __, __ = run_fused(rules, EDGES, query)
        assert rows == set()


class TestFallback:
    def test_backend_without_cte_support_falls_back(self, monkeypatch):
        with Testbed() as tb:
            tb.define(EVEN_ODD)
            tb.define_base_relation("edge", ("TEXT", "TEXT"))
            tb.load_facts("edge", EDGES)
            program = tb.compile_query("?- odd(X, Y).").program
            backend = type(tb.database.backend)
            monkeypatch.setattr(
                backend,
                "capabilities",
                dataclasses.replace(
                    backend.capabilities, supports_recursive_cte=False
                ),
            )
            result = program.execute(tb.database, tb.catalog)
            assert set(result.rows) == {("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")}
            assert result.total_iterations >= 2
            (verdict,) = result.strategy_by_clique.values()
            assert verdict.startswith("fallback: ")
            assert "recursive-CTE" in verdict

    def test_clique_that_qualifies_in_a_plan_that_does_not_fuse(self):
        rules = (
            "tc(X, Y) :- edge(X, Y). tc(X, Y) :- tc(X, Z), tc(Z, Y)."
            "both(X, Y) :- anc(X, Y), tc(X, Y). " + LEFT
        )
        with Testbed() as tb:
            tb.define(rules)
            tb.define_base_relation("edge", ("TEXT", "TEXT"))
            tb.load_facts("edge", EDGES)
            result = tb.query("?- both(X, Y).")
            assert set(result.rows) == closure_of(EDGES)
            assert result.compilation.program.fused is None
            verdicts = result.execution.strategy_by_clique
            assert verdicts["anc"] == "fallback: plan does not fuse"
            assert "non-linear" in verdicts["tc"]
