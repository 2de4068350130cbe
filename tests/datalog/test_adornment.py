"""Unit tests for adornments and sideways information passing."""

import pytest

from repro.datalog.adornment import (
    adorn_program,
    adorned_name,
    adornment_of,
    bound_terms,
    sip_order,
    split_adorned_name,
)
from repro.datalog.parser import parse_clause, parse_program, parse_query
from repro.datalog.terms import Atom, Constant, Variable
from repro.errors import OptimizationError

X, Y = Variable("X"), Variable("Y")


class TestAdornmentStrings:
    def test_constants_are_bound(self):
        atom = Atom("p", (Constant("a"), X))
        assert adornment_of(atom, set()) == "bf"

    def test_bound_variables(self):
        atom = Atom("p", (X, Y))
        assert adornment_of(atom, {X}) == "bf"
        assert adornment_of(atom, {X, Y}) == "bb"

    def test_name_round_trip(self):
        name = adorned_name("ancestor", "bf")
        assert name == "ancestor__bf"
        assert split_adorned_name(name) == ("ancestor", "bf")

    def test_split_rejects_plain_names(self):
        with pytest.raises(ValueError):
            split_adorned_name("ancestor")
        with pytest.raises(ValueError):
            split_adorned_name("p__base")

    def test_bound_terms(self):
        atom = Atom("p", (Constant("a"), X, Y))
        assert bound_terms(atom, "bfb") == (Constant("a"), Y)

    def test_bound_terms_length_mismatch(self):
        with pytest.raises(ValueError):
            bound_terms(Atom("p", (X,)), "bf")


ANCESTOR = parse_program(
    "ancestor(X, Y) :- parent(X, Y)."
    "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y)."
)


class TestAdornProgram:
    def test_left_linear_ancestor_bf(self):
        query = parse_query("?- ancestor('john', X).")
        adorned = adorn_program(ANCESTOR, query, {"ancestor"})
        assert adorned.query_goal.predicate == "ancestor__bf"
        assert adorned.adornments == {"ancestor": {"bf"}}
        heads = {c.head_predicate for c in adorned.rules}
        assert heads == {"ancestor__bf"}

    def test_sip_binds_through_earlier_atoms(self):
        # In the recursive rule the head binds X; parent(X, Z) then binds Z,
        # so the recursive call is ancestor^{bf}(Z, Y).
        query = parse_query("?- ancestor('john', X).")
        adorned = adorn_program(ANCESTOR, query, {"ancestor"})
        recursive = [
            c for c in adorned.rules if len(c.body) == 2
        ][0]
        assert recursive.body[1].predicate == "ancestor__bf"

    def test_free_query_gives_ff(self):
        query = parse_query("?- ancestor(X, Y).")
        adorned = adorn_program(ANCESTOR, query, {"ancestor"})
        assert adorned.query_goal.predicate == "ancestor__ff"
        # With an ff head, Z is still bound sideways by parent(X, Z):
        # the recursive occurrence is adorned bf.
        assert "bf" in adorned.adornments["ancestor"]

    def test_left_linear_second_argument_free(self):
        program = parse_program(
            "anc(X, Y) :- par(X, Y). anc(X, Y) :- anc(X, Z), par(Z, Y)."
        )
        query = parse_query("?- anc('a', Y).")
        adorned = adorn_program(program, query, {"anc"})
        assert adorned.adornments["anc"] == {"bf"}

    def test_multiple_adornments_generated(self):
        # anc is called bf from the query and fb from the helper.
        program = parse_program(
            "anc(X, Y) :- par(X, Y)."
            "anc(X, Y) :- par(X, Z), anc(Z, Y)."
            "rev(X, Y) :- anc(Y, X)."
        )
        query = parse_query("?- rev('a', Y).")
        adorned = adorn_program(program, query, {"anc", "rev"})
        assert adorned.adornments["rev"] == {"bf"}
        # anc is entered with fb from rev; inside the recursive rule the
        # SIP evaluates anc(Z, Y), bound on Y, before par(X, Z), so the
        # recursive call stays fb (left to right it was bb).
        assert adorned.adornments["anc"] == {"fb"}

    def test_multi_goal_query_rejected(self):
        query = parse_query("?- ancestor('a', X), ancestor(X, Y).")
        with pytest.raises(OptimizationError):
            adorn_program(ANCESTOR, query, {"ancestor"})

    def test_base_goal_rejected(self):
        query = parse_query("?- parent('a', X).")
        with pytest.raises(OptimizationError):
            adorn_program(ANCESTOR, query, {"ancestor"})

    def test_base_predicates_not_renamed(self):
        query = parse_query("?- ancestor('john', X).")
        adorned = adorn_program(ANCESTOR, query, {"ancestor"})
        for clause in adorned.rules:
            for atom in clause.body:
                if atom.predicate.startswith("parent"):
                    assert atom.predicate == "parent"


def _call(adorned, head, callee):
    """The adorned predicate of ``callee``'s call in the rule for ``head``."""
    (clause,) = [
        c
        for c in adorned.rules
        if c.head_predicate == head and any(
            a.predicate.startswith(callee + "__") for a in c.body
        )
    ]
    (atom,) = [a for a in clause.body if a.predicate.startswith(callee + "__")]
    return atom.predicate


class TestSipPerAdornment:
    """The SIP evaluates the most-bound body atom first, per head adornment."""

    def test_default_rules_target_bound_call_is_fb(self):
        # anc(Z, Y) is bound on Y, par(X, Z) on nothing: the call goes first
        # and stays fb, where left to right it was bb (a cross product).
        query = parse_query("?- ancestor(X, 'c').")
        adorned = adorn_program(ANCESTOR, query, {"ancestor"})
        assert adorned.adornments == {"ancestor": {"fb"}}
        assert _call(adorned, "ancestor__fb", "ancestor") == "ancestor__fb"

    def test_left_linear_target_bound_call_is_fb(self):
        # par(Z, Y) is bound on Y and binds Z: the recursive call is fb,
        # where left to right it was ff (an unrestricted closure).
        program = parse_program(
            "anc(X, Y) :- par(X, Y). anc(X, Y) :- anc(X, Z), par(Z, Y)."
        )
        adorned = adorn_program(program, parse_query("?- anc(X, 'c')."), {"anc"})
        assert adorned.adornments == {"anc": {"fb"}}
        assert _call(adorned, "anc__fb", "anc") == "anc__fb"

    def test_mutual_clique_calls_r_fb(self):
        # p/q/r: p's fb rule evaluates r(Z, Y), bound on Y, before
        # parent(X, Z), so r is called fb, not bb.
        program = parse_program(
            "p(X, Y) :- parent(X, Y). p(X, Y) :- parent(X, Z), r(Z, Y)."
            "q(Y) :- p(X, Y). r(X, Y) :- q(X), parent(X, Y)."
        )
        adorned = adorn_program(
            program, parse_query("?- p('t1', Y)."), {"p", "q", "r"}
        )
        assert _call(adorned, "p__fb", "r") == "r__fb"
        assert "bb" not in adorned.adornments["r"]

    def test_source_bound_adornments_unchanged(self):
        # The pinned bf plan of Fig 13/14 keeps its adornment.
        query = parse_query("?- ancestor('john', X).")
        adorned = adorn_program(ANCESTOR, query, {"ancestor"})
        assert _call(adorned, "ancestor__bf", "ancestor") == "ancestor__bf"

    def test_text_order_is_kept(self):
        query = parse_query("?- ancestor(X, 'c').")
        adorned = adorn_program(ANCESTOR, query, {"ancestor"})
        for clause in adorned.rules:
            assert clause.body[0].predicate == "parent"

    def test_order_most_bound_first_ties_in_text_order(self):
        clause = parse_clause("p(X) :- r(Y, Z), q(X, Y), s(Z).")
        assert sip_order(clause.body, {X}) == (1, 0, 2)
        assert sip_order(clause.body, set()) == (0, 1, 2)

    def test_constants_count_as_bound(self):
        clause = parse_clause("p(X) :- r(Y), q('a', Y).")
        assert sip_order(clause.body, set()) == (1, 0)

    def test_negated_atom_waits_for_its_variables(self):
        clause = parse_clause("p(X) :- not s(Y), q('a', X), r(X, Y).")
        assert sip_order(clause.body, set()) == (1, 2, 0)
