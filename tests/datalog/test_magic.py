"""Unit tests for the generalized magic sets rewriting."""

import pytest

from repro.datalog.magic import (
    factored_rewrite,
    is_magic_name,
    magic_name,
    magic_rewrite,
)
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.safety import is_safe
from repro.errors import OptimizationError

ANCESTOR = parse_program(
    "ancestor(X, Y) :- parent(X, Y)."
    "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y)."
)


class TestNames:
    def test_magic_name(self):
        assert magic_name("ancestor__bf") == "m_ancestor__bf"
        assert is_magic_name("m_ancestor__bf")
        assert not is_magic_name("ancestor__bf")


class TestAncestorRewrite:
    @pytest.fixture
    def rewrite(self):
        query = parse_query("?- ancestor('john', X).")
        return magic_rewrite(ANCESTOR, query, {"ancestor"})

    def test_seed_carries_the_query_constant(self, rewrite):
        assert rewrite.seed.head_predicate == "m_ancestor__bf"
        assert rewrite.seed.head.ground_tuple() == ("john",)

    def test_one_magic_rule_for_left_linear(self, rewrite):
        rules = list(rewrite.magic_rules)
        assert len(rules) == 1
        magic = rules[0]
        assert magic.head_predicate == "m_ancestor__bf"
        assert magic.body_predicates == ("m_ancestor__bf", "parent")

    def test_modified_rules_guarded(self, rewrite):
        for clause in rewrite.modified_rules:
            assert clause.body[0].predicate == "m_ancestor__bf"

    def test_goal_is_adorned(self, rewrite):
        assert rewrite.goal.predicate == "ancestor__bf"

    def test_separable(self, rewrite):
        # Magic rules only reference magic + base predicates, so the two
        # LFP computations of the paper's Test 7 can run in sequence.
        assert rewrite.separable

    def test_combined_includes_everything(self, rewrite):
        combined = rewrite.combined
        assert rewrite.seed in combined
        assert len(combined) == 1 + len(list(rewrite.magic_rules)) + len(
            list(rewrite.modified_rules)
        )

    def test_magic_predicates(self, rewrite):
        assert rewrite.magic_predicates == {"m_ancestor__bf"}

    def test_one_modified_rule_per_adorned_rule(self, rewrite):
        heads = [c.head_predicate for c in rewrite.modified_rules]
        assert heads == ["ancestor__bf", "ancestor__bf"]

    def test_all_rules_safe(self, rewrite):
        for clause in rewrite.combined:
            assert is_safe(clause), str(clause)

    def test_rules_hold_no_query_constant(self, rewrite):
        # Only the seed carries 'john': another constant of the same form
        # rewrites to the very same magic and modified rules.
        other = magic_rewrite(
            ANCESTOR, parse_query("?- ancestor('mary', X)."), {"ancestor"}
        )
        assert list(other.magic_rules) == list(rewrite.magic_rules)
        assert list(other.modified_rules) == list(rewrite.modified_rules)
        assert other.query_seed == rewrite.query_seed
        assert other.seed.head.ground_tuple() == ("mary",)


class TestSecondArgumentBound:
    @pytest.fixture
    def rewrite(self):
        query = parse_query("?- ancestor(X, 'john').")
        return magic_rewrite(ANCESTOR, query, {"ancestor"})

    def test_guard_implied_by_the_call_is_dropped(self, rewrite):
        # The recursive call ancestor__fb(Z, Y) carries the head's bound Y:
        # no guard, and no magic rule m_ancestor__fb(Y) :- m_ancestor__fb(Y).
        assert list(rewrite.magic_rules) == []
        assert [str(c) for c in rewrite.modified_rules] == [
            "ancestor__fb(X, Y) :- m_ancestor__fb(Y), parent(X, Y).",
            "ancestor__fb(X, Y) :- parent(X, Z), ancestor__fb(Z, Y).",
        ]

    def test_seed_binds_the_second_position(self, rewrite):
        assert rewrite.goal.predicate == "ancestor__fb"
        assert rewrite.query_seed.positions == (1,)
        assert rewrite.seed.head_predicate == "m_ancestor__fb"
        assert rewrite.seed.head.ground_tuple() == ("john",)

    def test_all_rules_safe(self, rewrite):
        for clause in rewrite.combined:
            assert is_safe(clause), str(clause)


class TestRightLinearRewrite:
    def test_not_separable(self):
        # Left-linear ancestor (the recursive call first) bound bf: the
        # call passes the head's binding straight through.
        program = parse_program(
            "anc(X, Y) :- par(X, Y). anc(X, Y) :- anc(X, Z), par(Z, Y)."
        )
        query = parse_query("?- anc('a', Y).")
        rewrite = magic_rewrite(program, query, {"anc"})
        assert rewrite.separable  # head binding passes straight through
        # Its magic rule would be m_anc__bf(X) :- m_anc__bf(X), which derives
        # nothing: it is dropped, and the magic set is just the seed.
        assert list(rewrite.magic_rules) == []
        # The recursive rule's guard is implied by its call anc__bf(X, Z).
        assert [str(c) for c in rewrite.modified_rules] == [
            "anc__bf(X, Y) :- m_anc__bf(X), par(X, Y).",
            "anc__bf(X, Y) :- anc__bf(X, Z), par(Z, Y).",
        ]


class TestRejections:
    def test_unbound_query_rejected(self):
        query = parse_query("?- ancestor(X, Y).")
        with pytest.raises(OptimizationError):
            magic_rewrite(ANCESTOR, query, {"ancestor"})

    def test_multi_goal_rejected(self):
        query = parse_query("?- ancestor('a', X), ancestor('b', X).")
        with pytest.raises(OptimizationError):
            magic_rewrite(ANCESTOR, query, {"ancestor"})


class TestSameGeneration:
    def test_same_generation_rewrite_structure(self):
        program = parse_program(
            "sg(X, Y) :- flat(X, Y)."
            "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)."
        )
        query = parse_query("?- sg('ann', Y).")
        rewrite = magic_rewrite(program, query, {"sg"})
        magic_rules = list(rewrite.magic_rules)
        assert len(magic_rules) == 1
        # m_sg__bf(U) :- m_sg__bf(X), up(X, U).
        assert magic_rules[0].body_predicates == ("m_sg__bf", "up")
        modified = list(rewrite.modified_rules)
        assert len(modified) == 2
        assert rewrite.separable

    def test_same_generation_rules_safe(self):
        program = parse_program(
            "sg(X, Y) :- flat(X, Y)."
            "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)."
        )
        rewrite = magic_rewrite(program, parse_query("?- sg('ann', Y)."), {"sg"})
        assert rewrite.seed.head.ground_tuple() == ("ann",)
        for clause in rewrite.combined:
            assert is_safe(clause), str(clause)


class TestMultipleDerivedCalls:
    @pytest.fixture
    def rewrite(self):
        program = parse_program(
            "t(X, Y) :- e(X, Y)."
            "t(X, Y) :- t(X, Z), t(Z, Y)."
        )
        return magic_rewrite(program, parse_query("?- t('a', Y)."), {"t"})

    def test_one_magic_rule_per_bound_occurrence(self, rewrite):
        # The first call's magic rule, m_t__bf(X) :- m_t__bf(X), derives
        # nothing and is dropped; the second reads the first call's answers.
        bodies = [c.body_predicates for c in rewrite.magic_rules]
        assert bodies == [("m_t__bf", "t__bf")]

    def test_not_separable(self, rewrite):
        # The second call's binding comes from the first call's answers, so
        # the magic set needs the modified rules: one fixpoint, not two.
        assert not rewrite.separable

    def test_all_rules_safe(self, rewrite):
        for clause in rewrite.combined:
            assert is_safe(clause), str(clause)


class TestFactoredRewrite:
    LEFT = parse_program(
        "anc(X, Y) :- par(X, Y). anc(X, Y) :- anc(X, Z), par(Z, Y)."
    )

    def test_right_linear_bf_is_the_magic_set_and_the_exit_rule(self):
        rewrite = factored_rewrite(
            ANCESTOR, parse_query("?- ancestor('a', Y)."), {"ancestor"}
        )
        assert [str(c) for c in rewrite.magic_rules] == [
            "m_ancestor__bf(Z) :- m_ancestor__bf(X), parent(X, Z)."
        ]
        assert [str(c) for c in rewrite.modified_rules] == [
            "ancestor__bf(X, Y) :- m_ancestor__bf(X), parent(X, Y)."
        ]
        assert rewrite.query_seed.positions == (0,)

    def test_left_linear_fb_mirrors_it(self):
        rewrite = factored_rewrite(self.LEFT, parse_query("?- anc(X, 'a')."), {"anc"})
        assert [str(c) for c in rewrite.magic_rules] == [
            "m_anc__fb(Z) :- m_anc__fb(Y), par(Z, Y)."
        ]
        assert [str(c) for c in rewrite.modified_rules] == [
            "anc__fb(X, Y) :- m_anc__fb(Y), par(X, Y)."
        ]

    def test_the_whole_non_recursive_body_steps_the_magic_set(self):
        # f(Z, W) follows the call in SIP order, yet it filters every step.
        program = parse_program(
            "p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y), f(Z, W)."
        )
        rewrite = factored_rewrite(program, parse_query("?- p('a', Y)."), {"p"})
        assert [str(c) for c in rewrite.magic_rules] == [
            "m_p__bf(Z) :- m_p__bf(X), e(X, Z), f(Z, W)."
        ]

    @pytest.mark.parametrize(
        "rules, query",
        [
            # The free argument changes across the recursion.
            ("anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).", "?- anc(X, 'a')."),
            ("anc(X, Y) :- par(X, Y). anc(X, Y) :- anc(X, Z), par(Z, Y).", "?- anc('a', Y)."),
            ("sg(X, Y) :- flat(X, Y). sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).",
             "?- sg('a', Y)."),
            # The passed-through argument is filtered, or repeated.
            ("p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y), f(Y, W).", "?- p('a', Y)."),
            ("p(X, Y) :- e(X, Y). p(X, X) :- e(X, Z), p(Z, X).", "?- p('a', Y)."),
            # Non-linear, negated, or reaching another derived predicate.
            ("t(X, Y) :- e(X, Y). t(X, Y) :- t(X, Z), t(Z, Y).", "?- t('a', Y)."),
            ("p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y), not f(X, Y).", "?- p('a', Y)."),
            ("p(X, Y) :- q(X, Y). p(X, Y) :- e(X, Z), p(Z, Y). q(X, Y) :- e(X, Y).",
             "?- p('a', Y)."),
            # No exit rule: nothing to evaluate over the magic set.
            ("p(X, Y) :- p(X, Y).", "?- p('a', Y)."),
        ],
    )
    def test_declines(self, rules, query):
        program = parse_program(rules)
        goal = parse_query(query)
        assert factored_rewrite(program, goal, program.derived_predicates) is None
