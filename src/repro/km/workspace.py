"""The Workspace D/KB Manager (paper section 3.2.2).

The workspace is the memory-resident environment where the user creates rules
and facts before querying them or committing them to the Stored D/KB.  The
manager provides the three functions the paper lists: determine the
predicates reachable from a given predicate, find the cliques, and generate
the evaluation order list.
"""

from __future__ import annotations

from typing import Iterable

from ..datalog.clauses import Clause, Program
from ..datalog.evalgraph import (
    EvaluationNode,
    build_evaluation_graph,
    evaluation_order,
)
from ..datalog.parser import iter_clauses
from ..datalog.pcg import Clique, PredicateConnectionGraph, find_cliques


class WorkspaceDKB:
    """The memory-resident rule and fact workspace."""

    def __init__(self) -> None:
        self._program = Program()
        #: Bumped by every change to the contents.  Plans compiled against
        #: the workspace record it, so a change made behind the session's
        #: back (``testbed.workspace.clear()``) is still noticed.
        self.generation = 0

    def define(self, source: str) -> list[Clause]:
        """Parse ``source`` and add every clause; returns the new clauses."""
        return [c for c in iter_clauses(source) if self.add_clause(c)]

    def add_clause(self, clause: Clause) -> bool:
        """Add one already-parsed clause; ``False`` when already present."""
        added = self._program.add(clause)
        if added:
            self.generation += 1
        return added

    def add_clauses(self, clauses: Iterable[Clause]) -> int:
        """Add many clauses; returns how many were new."""
        added = self._program.extend(clauses)
        self.generation += added
        return added

    def clear(self) -> None:
        """Empty the workspace."""
        self._program = Program()
        self.generation += 1

    def simplify(self) -> list[Clause]:
        """Drop tautological and subsumed rules; return what was removed.

        Uses theta-subsumption (:mod:`repro.datalog.subsumption`), so the
        workspace's least fixed point is unchanged.
        """
        from ..datalog.subsumption import simplify_program

        simplified, removed = simplify_program(self._program)
        if removed:
            self._program = simplified
            self.generation += 1
        return removed

    @property
    def program(self) -> Program:
        """The current workspace contents."""
        return self._program

    @property
    def rules(self) -> list[Clause]:
        """Workspace rules, in entry order."""
        return self._program.rules

    @property
    def facts(self) -> list[Clause]:
        """Workspace facts, in entry order."""
        return self._program.facts

    @property
    def derived_predicates(self) -> set[str]:
        """Predicates defined by workspace rules."""
        return self._program.derived_predicates

    def pcg(self) -> PredicateConnectionGraph:
        """The Predicate Connection Graph of the workspace rules."""
        return PredicateConnectionGraph(self._program.rules)

    def reachable_from(self, *predicates: str) -> set[str]:
        """All predicates reachable from ``predicates`` in the workspace PCG."""
        return self.pcg().reachable_from(*predicates)

    def cliques(self) -> list[Clique]:
        """The cliques of the workspace rules, in evaluation order."""
        return find_cliques(self._program)

    def evaluation_order_list(self) -> list[EvaluationNode]:
        """The evaluation order list for the full workspace."""
        return evaluation_order(build_evaluation_graph(self._program))
