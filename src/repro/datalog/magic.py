"""Generalized magic sets rewriting (paper section 3.2.5, reference [10]).

Given an adorned rule set, the transformation produces, per the paper's
control-flow description, "three sets of rules in the workspace: adorned,
magic, and modified rules" plus an adorned version of the query:

* a **magic predicate** ``m_p__a`` per adorned derived predicate ``p__a`` with
  at least one bound position, holding the bindings with which ``p__a`` will
  be called;
* **magic rules** deriving those bindings from the body atoms the SIP
  evaluates before each call (:func:`repro.datalog.adornment.sip_order`);
* **modified rules**: the original adorned rules guarded by their magic
  predicate, so bottom-up evaluation only derives facts relevant to the
  query;
* a **seed fact** for the query goal's magic predicate, built from the query
  constants.

Two simplifications drop what the rewrite would otherwise repeat.  A
modified rule whose body calls its own ``p__a`` with the head's bound terms
keeps no guard: every ``p__a`` fact already satisfies it.  A magic rule
whose body holds its own head atom derives nothing new and is dropped.
Together they leave a bound argument that a recursion passes through
unchanged as a one-row magic set read by the exit rules only.

:func:`factored_rewrite` is the third plan ``optimize="auto"`` chooses
from: right-/left-linear factoring (Naughton, Ramakrishnan, Sagiv & Ullman,
SIGMOD 1989) for a linear clique that passes every free argument through
unchanged.  Its answer is the exit rules over the magic set.

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
    head_bound_variables,
    sip_order,
    split_adorned_name,
)
from .clauses import Clause, Program, Query
from .terms import Atom, Constant, Variable

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
        guard: list[Atom] = [] if head_magic is None else [head_magic]
        __, adornment = split_adorned_name(clause.head.predicate)
        rank = {
            index: position
            for position, index in enumerate(
                sip_order(clause.body, head_bound_variables(clause.head, adornment))
            )
        }
        # Magic rules: one per derived body occurrence with bound positions,
        # over the atoms the SIP evaluates before it (kept in text order).
        for index, atom in enumerate(clause.body):
            body_magic = _magic_atom(atom) if _is_adorned_derived(atom) else None
            if body_magic is None:
                continue
            prefix = [b for j, b in enumerate(clause.body) if rank[j] < rank[index]]
            if body_magic not in guard + prefix:
                magic_rules.add(Clause(body_magic, tuple(guard + prefix)))
        # Modified rule: the adorned rule guarded by its magic literal,
        # unless it calls itself with the guard's bound terms.
        if head_magic is not None and _calls_itself_with(clause, head_magic):
            guard = []
        modified_rules.add(Clause(clause.head, tuple(guard + list(clause.body))))

    return MagicProgram(
        magic_rules,
        modified_rules,
        query_seed(adorned.query_goal),
        adorned.query_goal,
        adorned,
    )


def factored_rewrite(
    rules: Program, query: Query, derived_predicates: set[str]
) -> MagicProgram | None:
    """Right-/left-linear factoring of a bound query, or ``None``.

    Applies when the query's goal reaches one recursive predicate ``p``,
    adorned ``a`` and nothing else derived, no rule is negated, and every
    recursive rule is linear and passes each free head argument unchanged
    into the same position of its recursive call, the argument's variable
    occurring nowhere else in the rule.  The free arguments then never
    change across the recursion: ``p__a`` holds for a bound tuple exactly
    what its exit rules give for some tuple of the magic set.  So the rules
    are the magic rules, one per recursive rule over its whole non-recursive
    body, and the exit rules guarded by the magic set; no ``p__a``
    recursion.  Their ``p__a`` relation holds one row per magic tuple and
    exit answer, so the query's answer reads its free positions only.

    Right-linear ``p(X, Y) :- e(X, Z), p(Z, Y)`` bound ``bf`` and its
    left-linear mirror ``p(X, Y) :- p(X, Z), e(Z, Y)`` bound ``fb`` qualify;
    same-generation does not.
    """
    adorned = adorn_program(rules, query, derived_predicates)
    predicate, adornment = split_adorned_name(adorned.query_goal.predicate)
    if BOUND not in adornment or adorned.adornments != {predicate: {adornment}}:
        return None
    magic_rules = Program()
    exit_rules = Program()
    recursive = False
    for clause in adorned.rules:
        if any(atom.negated for atom in clause.body):
            return None
        head_magic = _magic_atom(clause.head)
        calls = [a for a in clause.body if a.predicate == clause.head.predicate]
        if not calls:
            exit_rules.add(Clause(clause.head, (head_magic, *clause.body)))
            continue
        if len(calls) != 1 or not _passes_free_arguments(clause, calls[0], adornment):
            return None
        recursive = True
        rest = tuple(a for a in clause.body if a is not calls[0])
        call_magic = _magic_atom(calls[0])
        if call_magic != head_magic:
            magic_rules.add(Clause(call_magic, (head_magic, *rest)))
    if not recursive or not exit_rules:
        return None
    return MagicProgram(
        magic_rules,
        exit_rules,
        query_seed(adorned.query_goal),
        adorned.query_goal,
        adorned,
    )


def _calls_itself_with(clause: Clause, head_magic: Atom) -> bool:
    """Whether ``clause``'s body calls its head predicate with the head's
    bound terms: every such fact already satisfies the head's guard."""
    __, adornment = split_adorned_name(clause.head.predicate)
    return any(
        atom.predicate == clause.head.predicate
        and not atom.negated
        and bound_terms(atom, adornment) == head_magic.terms
        for atom in clause.body
    )


def _passes_free_arguments(clause: Clause, call: Atom, adornment: str) -> bool:
    """Whether every free head argument of ``clause`` is a variable passed
    unchanged into the same position of ``call``, occurring nowhere else."""
    occurrences = list(clause.head.terms) + [
        term for atom in clause.body for term in atom.terms
    ]
    for position, letter in enumerate(adornment):
        term = clause.head.terms[position]
        if letter != BOUND and not (
            isinstance(term, Variable)
            and call.terms[position] == term
            and occurrences.count(term) == 2
        ):
            return False
    return True


def _is_adorned_derived(atom: Atom) -> bool:
    """True when ``atom`` refers to an adorned derived predicate."""
    try:
        split_adorned_name(atom.predicate)
    except ValueError:
        return False
    return not atom.negated
