"""The Optimizer (paper section 3.2.5).

Wraps the generalized magic sets rewriting of section 2.5 for the
compilation pipeline: it decides whether the rewriting *applies* to a query,
performs it (or, when asked, its factored form for a linear clique that
passes its free arguments through), types the new predicates, and packages
the rewritten rules together with the seed positions and goal mapping the
Code Generator needs.

Whether to *use* the optimizer stays the caller's choice (section 4.2 step
5); the default, ``optimize="auto"``, makes it once per query form
(:func:`repro.km.policy.decide_rewrite`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..datalog.adornment import split_adorned_name
from ..datalog.clauses import Clause, Program, Query
from ..datalog.magic import QuerySeed, factored_rewrite, magic_rewrite
from ..datalog.terms import Constant
from ..datalog.typecheck import TypeEnvironment
from ..errors import OptimizationError


@dataclass(frozen=True)
class OptimizationResult:
    """The rewritten rule set and the bookkeeping to execute it.

    ``seed_facts`` are the ground magic facts the *rules* produce (a callee
    bound to constants of a rule body); ``query_seed`` is where each query's
    own constants seed the goal's magic predicate.  The two are kept apart:
    a rule's fact may equal one query's seed row and not the next one's.
    ``factored`` marks a factored rewrite, whose goal relation holds the
    exit rules over the magic set: the answer reads its free positions.
    """

    rules: Program
    goal_rewrites: dict[str, str]
    seed_facts: dict[str, tuple[tuple, ...]]
    query_seed: QuerySeed
    new_types: dict[str, tuple[str, ...]]
    factored: bool = False


def optimization_applies(query: Query, derived_predicates: set[str]) -> bool:
    """Whether generalized magic sets can restrict this query.

    Applicable when the query has a single goal over a derived predicate
    with at least one constant argument (the binding the magic set
    propagates).
    """
    if len(query.goals) != 1:
        return False
    goal = query.goals[0]
    if goal.predicate not in derived_predicates:
        return False
    return any(isinstance(t, Constant) for t in goal.terms)


def optimize(
    rules: Program, query: Query, types: TypeEnvironment, factor: bool = False
) -> OptimizationResult:
    """Rewrite ``rules`` for ``query`` with generalized magic sets.

    Args:
        rules: the relevant rules.
        query: the (single-goal, bound) user query.
        types: inferred types of the original predicates.
        factor: take the factored rewrite
            (:func:`repro.datalog.magic.factored_rewrite`) when it applies.

    Raises:
        OptimizationError: when the optimization does not apply; callers
            should test :func:`optimization_applies` first.
    """
    derived = rules.derived_predicates
    if not optimization_applies(query, derived):
        raise OptimizationError(
            f"magic sets does not apply to query {query}"
        )
    factored = factored_rewrite(rules, query, derived) if factor else None
    rewrite = factored or magic_rewrite(rules, query, derived)
    rewritten, seed_facts = _split_facts(
        list(rewrite.magic_rules) + list(rewrite.modified_rules)
    )
    _add_negated_support(rewritten, rules, derived)
    return OptimizationResult(
        rewritten,
        {query.goals[0].predicate: rewrite.goal.predicate},
        seed_facts,
        rewrite.query_seed,
        _type_rewritten_predicates(rewritten, rewrite.magic_predicates, types),
        factored is not None,
    )


def _split_facts(
    clauses: Iterable[Clause],
) -> tuple[Program, dict[str, tuple[tuple, ...]]]:
    """Separate the rules of a rewrite from its ground magic facts.

    A magic "rule" degenerates to a ground fact when the callee's bindings
    are all constants and the calling rule has no prefix (e.g.
    ``m_p__fb('a') :- .`` from a body atom ``p(X, 'a')`` in an all-free
    rule).  Facts cannot be evaluation nodes; they become seed rows instead.
    """
    rules = Program()
    facts: dict[str, tuple[tuple, ...]] = {}
    for clause in clauses:
        if clause.is_fact:
            rows = facts.get(clause.head_predicate, ())
            row = clause.head.ground_tuple()
            if row not in rows:
                facts[clause.head_predicate] = rows + (row,)
        else:
            rules.add(clause)
    return rules, facts


def _add_negated_support(
    rewritten: Program, original: Program, derived: set[str]
) -> None:
    """Include the full definitions of negated derived predicates.

    Adornment only rewrites *positive* derived calls — bindings never pass
    through negation — so a modified rule may reference a derived predicate
    under its original name inside a ``not``.  That predicate (and whatever
    it reaches) must be evaluated in full alongside the rewritten rules;
    stratifiability guarantees its stratum is complete before the guarded
    rules read it.
    """
    from ..datalog.evalgraph import relevant_rules as reachable_rules

    negated = {
        atom.predicate
        for clause in rewritten
        for atom in clause.body
        if atom.negated and atom.predicate in derived
    }
    if negated:
        rewritten.extend(reachable_rules(original, negated).rules)


def _type_rewritten_predicates(
    rewritten: Program, magic_predicates: set[str], types: TypeEnvironment
) -> dict[str, tuple[str, ...]]:
    """Column types for the adorned and magic predicates.

    An adorned predicate keeps the original's types; a magic predicate keeps
    the types of the bound positions of its adorned predicate.
    """
    new_types: dict[str, tuple[str, ...]] = {}
    mentioned: set[str] = set()
    for clause in rewritten:
        mentioned.add(clause.head_predicate)
        mentioned.update(clause.body_predicates)
    mentioned.update(magic_predicates)

    for name in mentioned:
        target = name
        if name in magic_predicates:
            target = name[len("m_"):]
            base, adornment = split_adorned_name(target)
            original = types.of(base)
            new_types[name] = tuple(
                ctype
                for ctype, letter in zip(original, adornment)
                if letter == "b"
            )
            continue
        try:
            base, __ = split_adorned_name(target)
        except ValueError:
            continue  # unadorned: a base predicate
        new_types[name] = types.of(base)
    return new_types

