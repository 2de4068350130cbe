"""Supplementary magic sets rewriting (paper section 2.5, reference [8]).

Plain magic rules re-evaluate the join prefix ``b1, ..., b_{i-1}`` of a rule
once per derived body atom, and the modified rule evaluates the full body
again.  The *supplementary* variant materialises each prefix exactly once in
a supplementary predicate ``sup_k_i`` (rule ``k``, after body atom ``i``)
and chains everything off those:

    sup_k_0(V0)  :- m_h(bound head vars)
    sup_k_i(Vi)  :- sup_k_{i-1}(V_{i-1}), b_i'          (1 <= i < n)
    m_bi(bound)  :- sup_k_{i-1}(V_{i-1})                 (derived b_i)
    h(head)      :- sup_k_{n-1}(V_{n-1}), b_n'           (modified rule)

where ``Vi`` keeps exactly the variables still needed by later atoms or the
head — the textbook projection that makes supplementary predicates narrow.

The rewriting consumes an adorned rule set (same front end as
:mod:`repro.datalog.magic`), so the two methods are drop-in alternatives for
the Optimizer and can be compared by the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import OptimizationError
from .adornment import BOUND, AdornedProgram, adorn_program, bound_terms, split_adorned_name
from .clauses import Clause, Program, Query
from .magic import QuerySeed, magic_name, query_seed
from .terms import Atom, Constant, Variable

SUPPLEMENTARY_PREFIX = "sup_"


def supplementary_name(rule_index: int, atom_index: int) -> str:
    """Name of the supplementary predicate after atom ``atom_index``."""
    return f"{SUPPLEMENTARY_PREFIX}{rule_index}_{atom_index}"


def is_supplementary_name(name: str) -> bool:
    """True for names produced by :func:`supplementary_name`."""
    return name.startswith(SUPPLEMENTARY_PREFIX)


@dataclass(frozen=True)
class SupplementaryProgram:
    """The output of the supplementary magic sets transformation.

    Mirrors :class:`repro.datalog.magic.MagicProgram`: ``rules`` holds the
    supplementary, magic, and modified rules together (they are mutually
    dependent by construction, so there is no separable two-phase split);
    ``query_seed`` says where the query's constants seed the goal's magic
    predicate; ``goal`` is the adorned query goal.
    """

    rules: Program
    query_seed: QuerySeed
    goal: Atom
    adorned: AdornedProgram
    supplementary_arities: dict[str, int]

    @property
    def seed(self) -> Clause:
        """The seed fact of this rewrite's own query."""
        return self.query_seed.fact(self.goal)


def supplementary_rewrite(
    rules: Program, query: Query, derived_predicates: set[str]
) -> SupplementaryProgram:
    """Apply supplementary magic sets to ``rules`` for ``query``.

    Raises:
        OptimizationError: when the query has no constants, or a rule needs
            a magic constraint that no supplementary prefix can provide (an
            all-free head with a variable-bound first atom — unreachable
            from a bound query through the left-to-right SIP).
    """
    adorned = adorn_program(rules, query, derived_predicates)
    goal = query.goals[0]
    if not any(isinstance(t, Constant) for t in goal.terms):
        raise OptimizationError(
            f"query goal {goal} has no constants; supplementary magic sets "
            "cannot restrict the computation"
        )

    output = Program()
    arities: dict[str, int] = {}
    for rule_index, clause in enumerate(adorned.rules):
        _rewrite_rule(clause, rule_index, output, arities)

    return SupplementaryProgram(
        output, query_seed(adorned.query_goal), adorned.query_goal, adorned, arities
    )


def _rewrite_rule(
    clause: Clause, rule_index: int, output: Program, arities: dict[str, int]
) -> None:
    """Emit the supplementary/magic/modified rules for one adorned rule.

    The *prefix* is carried as a small conjunction of atoms — normally just
    the latest supplementary predicate.  When a supplementary predicate
    would be nullary (nothing known is needed later — e.g. all bindings are
    constants), it is skipped and the contributing atoms simply stay in the
    prefix conjunction, preserving the rewriting's semantics without
    zero-column relations.
    """
    __, adornment = split_adorned_name(clause.head_predicate)
    bound_head_vars: list[Variable] = []
    for term, letter in zip(clause.head.terms, adornment):
        if letter == BOUND and isinstance(term, Variable):
            if term not in bound_head_vars:
                bound_head_vars.append(term)

    body = clause.body
    head_vars = set(clause.head.variables)

    def needed_after(index: int) -> set[Variable]:
        needed = set(head_vars)
        for atom in body[index:]:
            needed.update(atom.variables)
        return needed

    known_vars: set[Variable] = set(bound_head_vars)
    prefix: list[Atom] = []
    if any(letter == BOUND for letter in adornment):
        prefix = [
            Atom(
                magic_name(clause.head_predicate),
                bound_terms(clause.head, adornment),
            )
        ]
        prefix = _fold_into_supplementary(
            prefix, known_vars, needed_after(0), rule_index, 0, output, arities
        )

    for index, atom in enumerate(body):
        if _is_adorned(atom):
            # Magic rule: the callee's bindings come from the prefix so far.
            __, atom_adornment = split_adorned_name(atom.predicate)
            magic_args = bound_terms(atom, atom_adornment)
            if magic_args:
                magic_head = Atom(magic_name(atom.predicate), magic_args)
                if prefix:
                    output.add(Clause(magic_head, tuple(prefix)))
                elif all(isinstance(t, Constant) for t in magic_args):
                    output.add(Clause(magic_head))  # constant bindings
                else:
                    raise OptimizationError(
                        f"cannot derive magic bindings for {atom} in "
                        f"{clause}: no supplementary prefix is available"
                    )
        if index == len(body) - 1:
            output.add(Clause(clause.head, tuple(prefix + [atom])))
        else:
            known_vars |= set(atom.variables)
            prefix = _fold_into_supplementary(
                prefix + [atom],
                known_vars,
                needed_after(index + 1),
                rule_index,
                index + 1,
                output,
                arities,
            )


def _fold_into_supplementary(
    conjunction: list[Atom],
    known_vars: set[Variable],
    needed: set[Variable],
    rule_index: int,
    atom_index: int,
    output: Program,
    arities: dict[str, int],
) -> list[Atom]:
    """Materialise ``conjunction`` as a supplementary predicate when possible.

    Returns the new prefix: ``[sup_k_i(columns)]`` normally, or the original
    conjunction unchanged when the projection would be nullary.
    """
    columns = sorted(
        (v for v in known_vars if v in needed), key=lambda v: v.name
    )
    if not columns:
        return conjunction
    head = Atom(supplementary_name(rule_index, atom_index), tuple(columns))
    arities[head.predicate] = len(columns)
    output.add(Clause(head, tuple(conjunction)))
    return [head]


def _is_adorned(atom: Atom) -> bool:
    if atom.negated:
        return False
    try:
        split_adorned_name(atom.predicate)
    except ValueError:
        return False
    return True
