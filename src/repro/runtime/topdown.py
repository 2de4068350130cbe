"""A tabled top-down evaluator (comparison baseline).

Section 2.4 of the paper names top-down evaluation (Henschen-Naqvi, Prolog)
as the alternative to the bottom-up strategies its testbed implements.  This
module provides that alternative as an independent, in-memory implementation:
goal-directed like Prolog, but *tabled* so left-recursive Datalog terminates.

The tabling scheme is deliberately simple and obviously correct: subgoals are
discovered goal-directedly (only subgoals relevant to the query are ever
tabled — the effect magic sets achieves by rewriting), and their answer
tables are then grown by global sweeps until no table changes.  Being a
second, SQL-free implementation path, the evaluator doubles as a correctness
oracle for the bottom-up strategies in the property-based tests.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from ..datalog.clauses import Clause, Program, Query
from ..datalog.terms import Atom, Constant, Variable
from ..datalog.unify import Substitution, apply_substitution, unify_atoms

FactsByPredicate = Mapping[str, Iterable[tuple]]


class TopDownEvaluator:
    """Tabled, goal-directed evaluation over in-memory facts."""

    def __init__(
        self,
        program: Program,
        facts: FactsByPredicate,
    ):
        self._rules: dict[str, list[Clause]] = {}
        self._facts: dict[str, set[tuple]] = {
            predicate: set(rows) for predicate, rows in facts.items()
        }
        for clause in program.rules:
            self._rules.setdefault(clause.head_predicate, []).append(clause)
        for clause in program.facts:
            self._facts.setdefault(clause.head_predicate, set()).add(
                clause.head.ground_tuple()
            )
        self._tables: dict[Atom, set[tuple]] = {}
        self._rename_counter = 0

    def query(self, query: Query) -> set[tuple]:
        """All answer tuples (over ``query.answer_variables``) for ``query``."""
        # Sweep to a global fixed point: solving the conjunction discovers
        # subgoals; deriving each tabled subgoal once per sweep grows the
        # tables; stop when a whole sweep neither grows a table nor
        # discovers a new subgoal.
        changed = True
        while changed:
            changed = False
            before = len(self._tables)
            for __ in self._solve_conjunction(query.goals, {}):
                pass  # discovery only; answers are collected after the fixpoint
            for key in list(self._tables):
                if self._derive_once(key):
                    changed = True
            if len(self._tables) > before:
                changed = True

        answers: set[tuple] = set()
        for substitution in self._solve_conjunction(query.goals, {}):
            row = []
            for variable in query.answer_variables:
                term = substitution.get(variable)
                while isinstance(term, Variable) and term in substitution:
                    term = substitution[term]
                if not isinstance(term, Constant):
                    raise ValueError(
                        f"answer variable {variable} unbound; query is unsafe"
                    )
                row.append(term.value)
            answers.add(tuple(row))
        return answers

    def _complete_subgoal(self, goal: Atom) -> None:
        """Grow the tables the (positive) ``goal`` depends on to a fixed point.

        Only subgoals over predicates reachable from ``goal``'s predicate are
        swept, so for a stratified program this never touches the incomplete
        tables of the stratum currently being computed.
        """
        self._answers_for(goal)
        scope = self._reachable_predicates(goal.predicate)
        while True:
            changed = False
            before = len(self._tables)
            for key in list(self._tables):
                if key.predicate in scope and self._derive_once(key):
                    changed = True
            if len(self._tables) > before:
                changed = True
            if not changed:
                return

    def _reachable_predicates(self, predicate: str) -> set[str]:
        """``predicate`` plus everything reachable from it in the rule PCG."""
        reached = {predicate}
        frontier = [predicate]
        while frontier:
            current = frontier.pop()
            for clause in self._rules.get(current, ()):
                for atom in clause.body:
                    if atom.predicate not in reached:
                        reached.add(atom.predicate)
                        frontier.append(atom.predicate)
        return reached

    def _derive_once(self, key: Atom) -> bool:
        """Run every rule for ``key`` once against current tables.

        Returns:
            True when the subgoal's table gained a tuple.
        """
        table = self._tables[key]
        before = len(table)
        for clause in self._rules.get(key.predicate, ()):
            renamed = self._rename(clause)
            unified = unify_atoms(renamed.head, key)
            if unified is None:
                continue
            for solution in self._solve_conjunction(renamed.body, unified):
                head = apply_substitution(renamed.head, solution)
                if head.is_ground:
                    table.add(head.ground_tuple())
        return len(table) > before

    def _solve_conjunction(
        self, goals: Sequence[Atom], substitution: Substitution
    ) -> Iterator[Substitution]:
        if not goals:
            yield substitution
            return
        first, rest = goals[0], goals[1:]
        bound_goal = apply_substitution(first, substitution)
        if bound_goal.negated:
            # Negation as (stratified) failure: the subgoal must be ground,
            # and — for soundness — its table must be *complete* before the
            # test, so we run a nested fixed point over the predicates the
            # subgoal can reach (a lower stratum, by stratifiability).
            positive = bound_goal.positive()
            if not positive.is_ground:
                raise ValueError(f"negated goal {bound_goal} is not ground")
            self._complete_subgoal(positive)
            if positive.ground_tuple() not in self._answers_for(positive):
                yield from self._solve_conjunction(rest, substitution)
            return
        for answer in list(self._answers_for(bound_goal)):
            ground = Atom(bound_goal.predicate, tuple(Constant(v) for v in answer))
            unified = unify_atoms(bound_goal, ground, substitution)
            if unified is not None:
                yield from self._solve_conjunction(rest, unified)

    def _answers_for(self, goal: Atom) -> set[tuple]:
        """Current table for ``goal``, registering the subgoal if new.

        Base predicates answer directly from the fact store; derived
        predicates get a table seeded with any stored facts and grown by the
        sweep loop in :meth:`query`.
        """
        if goal.predicate not in self._rules:
            return self._matching_facts(goal)
        key = self._canonical(goal)
        table = self._tables.get(key)
        if table is None:
            table = set(self._matching_facts(goal))
            self._tables[key] = table
        return table

    def _matching_facts(self, goal: Atom) -> set[tuple]:
        rows = self._facts.get(goal.predicate, set())
        filters = [
            (i, t.value) for i, t in enumerate(goal.terms) if isinstance(t, Constant)
        ]
        if not filters:
            return set(rows)
        return {row for row in rows if all(row[i] == v for i, v in filters)}

    def _canonical(self, goal: Atom) -> Atom:
        """Canonical call pattern: variables renamed by first occurrence."""
        mapping: dict[Variable, Variable] = {}
        terms: list = []
        for term in goal.terms:
            if isinstance(term, Variable):
                terms.append(mapping.setdefault(term, Variable(f"_G{len(mapping)}")))
            else:
                terms.append(term)
        return Atom(goal.predicate, tuple(terms))

    def _rename(self, clause: Clause) -> Clause:
        self._rename_counter += 1
        return clause.rename_apart(f"__r{self._rename_counter}")


def evaluate_top_down(
    program: Program,
    facts: FactsByPredicate,
    query: Query,
) -> set[tuple]:
    """One-shot convenience wrapper around :class:`TopDownEvaluator`."""
    return TopDownEvaluator(program, facts).query(query)
