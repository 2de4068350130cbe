"""The Optimizer (paper section 3.2.5).

Wraps the rule rewriting strategies of section 2.5 for the compilation
pipeline: it decides whether an optimization *applies* to a query, performs
the chosen rewriting (generalized magic sets, or the supplementary variant),
types the new predicates, and packages the rewritten rules together with the
seed positions and goal mapping the Code Generator needs.

Whether to *use* the optimizer stays the caller's choice (section 4.2 step
5); the default, ``optimize="auto"``, makes it once per query form
(:func:`repro.km.policy.decide_rewrite`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from ..datalog.adornment import split_adorned_name
from ..datalog.clauses import Clause, Program, Query
from ..datalog.magic import MagicProgram, QuerySeed, is_magic_name, magic_rewrite
from ..datalog.supplementary import (
    SupplementaryProgram,
    supplementary_rewrite,
)
from ..datalog.terms import Constant
from ..datalog.typecheck import TypeEnvironment
from ..errors import OptimizationError

REWRITE_METHODS = ("magic", "supplementary")


@dataclass(frozen=True)
class OptimizationResult:
    """The rewritten rule set and the bookkeeping to execute it.

    ``seed_facts`` are the ground magic facts the *rules* produce (a callee
    bound to constants of a rule body); ``query_seed`` is where each query's
    own constants seed the goal's magic predicate.  The two are kept apart:
    a rule's fact may equal one query's seed row and not the next one's.
    """

    rules: Program
    goal_rewrites: dict[str, str]
    seed_facts: dict[str, tuple[tuple, ...]]
    query_seed: QuerySeed
    new_types: dict[str, tuple[str, ...]]
    rewrite: Union[MagicProgram, SupplementaryProgram]
    method: str = "magic"

    @property
    def magic(self) -> Union[MagicProgram, SupplementaryProgram]:
        """Backwards-compatible alias for :attr:`rewrite`."""
        return self.rewrite


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
    rules: Program,
    query: Query,
    types: TypeEnvironment,
    method: str = "magic",
) -> OptimizationResult:
    """Rewrite ``rules`` for ``query`` with the chosen rewriting strategy.

    Args:
        rules: the relevant rules.
        query: the (single-goal, bound) user query.
        types: inferred types of the original predicates.
        method: ``"magic"`` (generalized magic sets) or ``"supplementary"``
            (supplementary magic sets — materialised join prefixes).

    Raises:
        OptimizationError: when the optimization does not apply; callers
            should test :func:`optimization_applies` first.
    """
    derived = rules.derived_predicates
    if not optimization_applies(query, derived):
        raise OptimizationError(
            f"magic sets does not apply to query {query}"
        )
    if method not in REWRITE_METHODS:
        raise OptimizationError(
            f"unknown rewriting method {method!r}; one of {REWRITE_METHODS}"
        )
    goal = query.goals[0]

    rewrite: Union[MagicProgram, SupplementaryProgram]
    if method == "magic":
        rewrite = magic_rewrite(rules, query, derived)
        rewritten, seed_facts = _split_facts(
            list(rewrite.magic_rules) + list(rewrite.modified_rules)
        )
        magic_predicates = rewrite.magic_predicates
    else:
        rewrite = supplementary_rewrite(rules, query, derived)
        rewritten, seed_facts = _split_facts(rewrite.rules)
        magic_predicates = {
            clause.head_predicate
            for clause in rewrite.rules
            if is_magic_name(clause.head_predicate)
        } | {rewrite.query_seed.predicate}
    _add_negated_support(rewritten, rules, derived)
    new_types = _type_rewritten_predicates(rewritten, magic_predicates, types)
    if isinstance(rewrite, SupplementaryProgram):
        new_types.update(_type_supplementary_predicates(rewrite, types))
    return OptimizationResult(
        rewritten,
        {goal.predicate: rewrite.goal.predicate},
        seed_facts,
        rewrite.query_seed,
        new_types,
        rewrite,
        method,
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
            continue  # unadorned: a base or supplementary predicate
        new_types[name] = types.of(base)
    return new_types


def _type_supplementary_predicates(
    supplementary: SupplementaryProgram, types: TypeEnvironment
) -> dict[str, tuple[str, ...]]:
    """Column types for the ``sup_k_i`` predicates via type unification.

    The supplementary columns are rule variables; running the standard type
    inference over the rewritten rules — with every adorned, magic, and base
    predicate already typed — pins each supplementary column's type.
    """
    from ..datalog.typecheck import infer_types

    known: dict[str, tuple[str, ...]] = {}
    for predicate in types.types:
        known[predicate] = types.of(predicate)
    known.update(
        _type_rewritten_predicates(
            supplementary.rules,
            {
                c.head_predicate
                for c in supplementary.rules
                if c.head_predicate.startswith("m_")
            }
            | {supplementary.query_seed.predicate},
            types,
        )
    )
    environment = infer_types(
        supplementary.rules, known, allow_undefined=True
    )
    return {
        name: environment.of(name)
        for name in supplementary.supplementary_arities
        if name in environment
    }
