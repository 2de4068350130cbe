"""Adornments and sideways information passing (SIP).

The generalized magic sets optimization (Beeri & Ramakrishnan, the paper's
reference [10]) works on an *adorned* rule set: every derived predicate
occurrence carries a string over ``{b, f}`` marking which argument positions
are bound at call time.  Bindings propagate *sideways* through a rule body.
The paper's testbed passed them left to right and lists a better
information-passing strategy as designed but not built; this module chooses
the order per head adornment instead (:func:`sip_order`): the most-bound
body atom first, as Query-Subquery Nets order their subqueries.  The rule's
text order is kept, so a rule whose adornments the choice does not change
compiles to the same SQL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import OptimizationError
from .clauses import Clause, Program, Query
from .terms import Atom, Constant, Variable

BOUND = "b"
FREE = "f"


def adornment_of(atom: Atom, bound_variables: set[Variable]) -> str:
    """The adornment string of ``atom`` given the currently bound variables."""
    letters = []
    for term in atom.terms:
        if isinstance(term, Constant) or term in bound_variables:
            letters.append(BOUND)
        else:
            letters.append(FREE)
    return "".join(letters)


def head_bound_variables(head: Atom, adornment: str) -> set[Variable]:
    """The variables at the bound positions of ``head`` under ``adornment``."""
    return {
        term
        for term, letter in zip(head.terms, adornment)
        if letter == BOUND and isinstance(term, Variable)
    }


def sip_order(body: Sequence[Atom], bound: Iterable[Variable]) -> tuple[int, ...]:
    """The body positions in the order the SIP evaluates them.

    Greedy, most-bound first: repeatedly take the atom with the most bound
    argument positions (constants and already-bound variables), ties in text
    order.  A positive atom then binds all its variables; a negated atom
    binds nothing and is taken only once its variables are all bound (or,
    failing that, after every positive atom).
    """
    bound = set(bound)
    remaining = list(range(len(body)))
    order: list[int] = []

    def ready(index: int) -> bool:
        atom = body[index]
        return not atom.negated or set(atom.variables) <= bound

    while remaining:
        candidates = [i for i in remaining if ready(i)] or remaining
        best = max(
            candidates,
            key=lambda i: (adornment_of(body[i], bound).count(BOUND), -i),
        )
        remaining.remove(best)
        order.append(best)
        if not body[best].negated:
            bound.update(body[best].variables)
    return tuple(order)


def adorned_name(predicate: str, adornment: str) -> str:
    """Name of the adorned version of ``predicate``, e.g. ``ancestor__bf``."""
    return f"{predicate}__{adornment}"


def split_adorned_name(name: str) -> tuple[str, str]:
    """Inverse of :func:`adorned_name`.

    Raises:
        ValueError: when ``name`` is not an adorned predicate name.
    """
    base, separator, adornment = name.rpartition("__")
    if not separator or not adornment or set(adornment) - {BOUND, FREE}:
        raise ValueError(f"{name!r} is not an adorned predicate name")
    return base, adornment


def bound_terms(atom: Atom, adornment: str) -> tuple:
    """The argument terms of ``atom`` at the bound positions of ``adornment``."""
    if len(adornment) != atom.arity:
        raise ValueError(
            f"adornment {adornment!r} does not fit {atom.predicate}/{atom.arity}"
        )
    return tuple(
        term for term, letter in zip(atom.terms, adornment) if letter == BOUND
    )


@dataclass(frozen=True)
class AdornedProgram:
    """Result of the adornment pass.

    ``rules`` use adorned names for derived predicates; ``query_goal`` is the
    adorned version of the (single-goal) query; ``derived`` records which
    *original* predicates are derived, and ``adornments`` maps each original
    derived predicate to the set of adornments generated for it.
    """

    rules: Program
    query_goal: Atom
    derived: frozenset[str]
    adornments: dict[str, set[str]]


def adorn_program(
    rules: Program, query: Query, derived_predicates: Iterable[str]
) -> AdornedProgram:
    """Adorn ``rules`` for ``query``, choosing the SIP per head adornment.

    Only single-goal queries over a derived predicate are adorned (the
    testbed rewrites multi-goal queries into an auxiliary rule first; see
    :mod:`repro.km.optimizer`).

    Raises:
        OptimizationError: when the query goal is not a derived predicate.
    """
    derived = frozenset(derived_predicates)
    if len(query.goals) != 1:
        raise OptimizationError(
            "adornment requires a single-goal query; wrap multi-goal queries "
            "in an auxiliary rule first"
        )
    goal = query.goals[0]
    if goal.predicate not in derived:
        raise OptimizationError(
            f"query goal {goal.predicate!r} is not a derived predicate; "
            "magic sets does not apply"
        )

    query_adornment = adornment_of(goal, set())
    worklist: list[tuple[str, str]] = [(goal.predicate, query_adornment)]
    done: set[tuple[str, str]] = set()
    adorned_rules = Program()
    adornments: dict[str, set[str]] = {}

    while worklist:
        predicate, adornment = worklist.pop()
        if (predicate, adornment) in done:
            continue
        done.add((predicate, adornment))
        adornments.setdefault(predicate, set()).add(adornment)
        for clause in rules.defining(predicate):
            if not clause.is_rule:
                continue
            adorned_clause, calls = _adorn_rule(clause, adornment, derived)
            adorned_rules.add(adorned_clause)
            for called_predicate, called_adornment in calls:
                if (called_predicate, called_adornment) not in done:
                    worklist.append((called_predicate, called_adornment))

    adorned_goal = Atom(
        adorned_name(goal.predicate, query_adornment), goal.terms
    )
    return AdornedProgram(adorned_rules, adorned_goal, derived, adornments)


def _adorn_rule(
    clause: Clause, head_adornment: str, derived: frozenset[str]
) -> tuple[Clause, list[tuple[str, str]]]:
    """Adorn one rule for one head adornment.

    Returns the adorned clause and the (predicate, adornment) pairs of the
    derived body atoms it calls.
    """
    if len(head_adornment) != clause.head.arity:
        raise OptimizationError(
            f"adornment {head_adornment!r} does not fit head of {clause}"
        )
    bound = head_bound_variables(clause.head, head_adornment)
    new_body = list(clause.body)
    calls: list[tuple[str, str]] = []
    for index in sip_order(clause.body, bound):
        atom = clause.body[index]
        if atom.predicate in derived and not atom.negated:
            atom_adornment = adornment_of(atom, bound)
            calls.append((atom.predicate, atom_adornment))
            new_body[index] = Atom(
                adorned_name(atom.predicate, atom_adornment), atom.terms
            )
        if not atom.negated:
            bound.update(atom.variables)

    new_head = Atom(
        adorned_name(clause.head.predicate, head_adornment), clause.head.terms
    )
    return Clause(new_head, tuple(new_body)), calls
