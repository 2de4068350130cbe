"""Integrity constraints and consistency checking.

The paper's update algorithm explicitly skips this: "there is no checking of
these rules against any integrity constraints that may be associated with
the Stored D/KB" (section 4.3), and "the consistency check and truth
maintenance of the knowledge base" is listed as an open issue (section 6).
This module fills the gap with *denial constraints*: rules whose head is the
reserved predicate ``inconsistent``.  A constraint is violated exactly when
its body is satisfiable; the witnesses are the bindings of the head
variables.

Example::

    % nobody is their own ancestor
    inconsistent(X) :- ancestor(X, X).

Checking compiles each constraint body as an ordinary D/KB query, so
constraints may freely use recursion, stored rules, and negation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..datalog.clauses import Clause, Query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import Testbed

RESERVED_PREDICATE = "inconsistent"


@dataclass(frozen=True)
class Violation:
    """One violated constraint with the witness tuples that violate it."""

    constraint: Clause
    witnesses: tuple[tuple, ...]

    def describe(self) -> str:
        """Human-readable summary."""
        shown = ", ".join(str(w) for w in self.witnesses[:5])
        more = "" if len(self.witnesses) <= 5 else f" (+{len(self.witnesses) - 5} more)"
        return f"constraint {self.constraint} violated by {shown}{more}"


def is_constraint(clause: Clause) -> bool:
    """Whether ``clause`` is a denial constraint."""
    return clause.is_rule and clause.head_predicate == RESERVED_PREDICATE


def constraint_rules(clauses: Iterable[Clause]) -> list[Clause]:
    """The denial constraints among ``clauses``."""
    return [c for c in clauses if is_constraint(c)]


def check_consistency(testbed: "Testbed") -> list[Violation]:
    """Evaluate every constraint of the workspace and stored D/KB.

    Returns the violated constraints with their witnesses; an empty list
    means the D/KB is consistent.  Constraints whose body references
    predicates that do not exist yet are treated as trivially satisfied
    (nothing can violate a constraint over undefined data).
    """
    from ..datalog.parser import parse_clause
    from ..errors import UndefinedPredicateError

    constraints: list[Clause] = constraint_rules(testbed.workspace.program)
    # Only the stored constraints are read and parsed (an index probe on
    # the rule head), however large the stored rule base.
    for text in sorted(testbed.stored.rule_texts_with_head(RESERVED_PREDICATE)):
        clause = parse_clause(text)
        if clause not in constraints:
            constraints.append(clause)

    violations: list[Violation] = []
    for constraint in constraints:
        query = Query(constraint.body, constraint.head.variables)
        try:
            result = testbed.query(query)
        except UndefinedPredicateError:
            continue  # body over not-yet-defined predicates: vacuously holds
        if result.rows:
            witnesses = tuple(sorted(set(result.rows)))
            violations.append(Violation(constraint, witnesses))
    return violations


def assert_consistent(testbed: "Testbed") -> None:
    """Raise when any constraint is violated.

    Raises:
        UpdateError: listing every violated constraint.
    """
    from ..errors import UpdateError

    violations = check_consistency(testbed)
    if violations:
        raise UpdateError(
            "consistency check failed: "
            + "; ".join(v.describe() for v in violations)
        )
