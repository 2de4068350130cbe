"""Generalized magic sets rewriting (paper section 3.2.5, reference [10]).

Given an adorned rule set, the transformation produces, per the paper's
control-flow description, "three sets of rules in the workspace: adorned,
magic, and modified rules" plus an adorned version of the query:

* a **magic predicate** ``m_p__a`` per adorned derived predicate ``p__a`` with
  at least one bound position, holding the bindings with which ``p__a`` will
  be called;
* **magic rules** deriving those bindings by walking rule bodies left to
  right (the SIP);
* **modified rules**: the original adorned rules guarded by their magic
  predicate, so bottom-up evaluation only derives facts relevant to the
  query;
* a **seed fact** for the query goal's magic predicate, built from the query
  constants.

The rules depend only on *which* goal arguments are bound, never on their
values, so the rewrite records the seed as a :class:`QuerySeed` — goal
argument positions, not a tuple — and one rewritten program serves every
query of the form (Query-Subquery Nets' observation: the query pattern fixes
the program, the constants are input tuples).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import OptimizationError
from .adornment import (
    BOUND,
    AdornedProgram,
    adorn_program,
    bound_terms,
    split_adorned_name,
)
from .clauses import Clause, Program, Query
from .terms import Atom, Constant

MAGIC_PREFIX = "m_"


def magic_name(adorned_predicate: str) -> str:
    """Name of the magic predicate for an adorned predicate."""
    return f"{MAGIC_PREFIX}{adorned_predicate}"


def is_magic_name(name: str) -> bool:
    """True for names produced by :func:`magic_name`."""
    return name.startswith(MAGIC_PREFIX)


def _magic_atom(adorned_atom: Atom) -> Atom | None:
    """The magic literal for ``adorned_atom``; ``None`` for all-free adornments."""
    __, adornment = split_adorned_name(adorned_atom.predicate)
    if BOUND not in adornment:
        return None
    return Atom(
        magic_name(adorned_atom.predicate), bound_terms(adorned_atom, adornment)
    )


@dataclass(frozen=True)
class QuerySeed:
    """Where a query's constants enter its rewritten program.

    ``predicate`` is the magic predicate of the adorned query goal;
    ``positions`` are the goal argument positions whose constants, in order,
    form its one seed row.  The row itself is read off each query's goal at
    execution time (:meth:`row`).
    """

    predicate: str
    positions: tuple[int, ...]

    def fact(self, goal: Atom) -> Clause:
        """The seed fact for ``goal``, a goal of the rewritten form."""
        return Clause(Atom(self.predicate, tuple(goal.terms[i] for i in self.positions)))

    def row(self, goal: Atom) -> tuple:
        """The seed row for ``goal``, a goal of the rewritten form."""
        return tuple(goal.terms[i].value for i in self.positions)


def query_seed(adorned_goal: Atom) -> QuerySeed:
    """The :class:`QuerySeed` of an adorned query goal."""
    __, adornment = split_adorned_name(adorned_goal.predicate)
    return QuerySeed(
        magic_name(adorned_goal.predicate),
        tuple(i for i, letter in enumerate(adornment) if letter == BOUND),
    )


@dataclass(frozen=True)
class MagicProgram:
    """The output of the magic sets transformation.

    ``separable`` is true when the magic rules reference no adorned derived
    predicates, i.e. the two LFPs the paper describes (magic first, modified
    second) can be computed in sequence; otherwise all rules must be evaluated
    in a single fixed point.
    """

    magic_rules: Program
    modified_rules: Program
    query_seed: QuerySeed
    goal: Atom
    adorned: AdornedProgram

    @property
    def seed(self) -> Clause:
        """The seed fact of this rewrite's own query."""
        return self.query_seed.fact(self.goal)

    @property
    def separable(self) -> bool:
        """Whether magic rules close without the modified rules."""
        adorned_heads = {
            clause.head_predicate for clause in self.adorned.rules
        }
        for clause in self.magic_rules:
            for atom in clause.body:
                if atom.predicate in adorned_heads:
                    return False
        return True

    @property
    def combined(self) -> Program:
        """All rewritten rules plus the seed, for single-fixpoint evaluation."""
        program = Program()
        program.add(self.seed)
        program.extend(self.magic_rules)
        program.extend(self.modified_rules)
        return program

    @property
    def magic_predicates(self) -> set[str]:
        """All magic predicate names (including the seeded one)."""
        names = {c.head_predicate for c in self.magic_rules}
        names.add(self.query_seed.predicate)
        return names


def magic_rewrite(
    rules: Program, query: Query, derived_predicates: set[str]
) -> MagicProgram:
    """Apply generalized magic sets to ``rules`` for ``query``.

    Raises:
        OptimizationError: when the query has no bound argument (magic sets
            would restrict nothing) or the goal is not derived.
    """
    adorned = adorn_program(rules, query, derived_predicates)
    goal = query.goals[0]
    constants = [t for t in goal.terms if isinstance(t, Constant)]
    if not constants:
        raise OptimizationError(
            f"query goal {goal} has no constants; magic sets cannot restrict "
            "the computation"
        )

    magic_rules = Program()
    modified_rules = Program()

    for clause in adorned.rules:
        head_magic = _magic_atom(clause.head)
        prefix: list[Atom] = [] if head_magic is None else [head_magic]
        # Magic rules: one per derived body occurrence with bound positions.
        seen_body: list[Atom] = []
        for atom in clause.body:
            if _is_adorned_derived(atom):
                body_magic = _magic_atom(atom)
                if body_magic is not None:
                    magic_rules.add(
                        Clause(body_magic, tuple(prefix + seen_body))
                    )
            seen_body.append(atom)
        # Modified rule: original adorned rule guarded by its magic literal.
        modified_rules.add(Clause(clause.head, tuple(prefix + list(clause.body))))

    return MagicProgram(
        magic_rules,
        modified_rules,
        query_seed(adorned.query_goal),
        adorned.query_goal,
        adorned,
    )


def _is_adorned_derived(atom: Atom) -> bool:
    """True when ``atom`` refers to an adorned derived predicate."""
    try:
        split_adorned_name(atom.predicate)
    except ValueError:
        return False
    return not atom.negated
