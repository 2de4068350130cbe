"""Canonical query families for the execution experiments.

All of the paper's execution tests (Tests 4-7) use the ``ancestor`` query
over tree-structured ``parent`` data::

    ancestor(X, Y) :- parent(X, Y).
    ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).

This module builds that program (and the classic ``same_generation``, used
as an additional example/benchmark), loads generated relations into a
testbed, and computes query selectivities ``D_rel / D`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..km.session import Testbed
from .relations import GeneratedRelation, iter_descendants

ANCESTOR_RULES = """
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
"""

# Left-linear variant (Naughton, Ramakrishnan, Sagiv & Ullman's term): the
# recursive call is the first body atom.  ``ANCESTOR_RULES`` is right-linear.
ANCESTOR_RULES_LEFT = """
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- ancestor(X, Z), parent(Z, Y).
"""

SAME_GENERATION_RULES = """
same_generation(X, Y) :- flat(X, Y).
same_generation(X, Y) :- up(X, U), same_generation(U, V), down(V, Y).
"""


def ancestor_query(root: str) -> str:
    """The bound ancestor query for a given root constant."""
    return f"?- ancestor('{root}', Y)."


def load_parent_relation(
    testbed: Testbed, relation: GeneratedRelation, predicate: str = "parent"
) -> int:
    """Create and populate the ``parent`` base relation from a generated graph."""
    if not testbed.catalog.has_relation(predicate):
        testbed.define_base_relation(predicate, ("TEXT", "TEXT"))
    return testbed.load_facts(predicate, relation.edges)


def make_ancestor_testbed(
    relation: GeneratedRelation, left_linear: bool = False
) -> Testbed:
    """A fresh testbed with the ancestor rules and ``relation`` as ``parent``."""
    testbed = Testbed()
    testbed.define(ANCESTOR_RULES_LEFT if left_linear else ANCESTOR_RULES)
    load_parent_relation(testbed, relation)
    return testbed


@dataclass(frozen=True)
class SelectivityPoint:
    """One query root with its exact relevant-fact statistics."""

    root: str
    relevant_facts: int  # the paper's D_rel: facts reachable from the root
    total_facts: int  # the paper's D

    @property
    def selectivity(self) -> float:
        """The paper's ``D_rel / D``."""
        return self.relevant_facts / self.total_facts if self.total_facts else 0.0


def selectivity_of(relation: GeneratedRelation, root: str) -> SelectivityPoint:
    """Exact selectivity of the ancestor query rooted at ``root``.

    ``D_rel`` counts the edges within the subgraph reachable from the root —
    the facts the magic-set computation would touch.
    """
    reachable = set(iter_descendants(relation, root))
    reachable.add(root)
    relevant = sum(
        1 for source, __ in relation.edges if source in reachable
    )
    return SelectivityPoint(root, relevant, relation.tuple_count)


def expected_ancestor_answers(relation: GeneratedRelation, root: str) -> set[tuple]:
    """Ground truth for the bound ancestor query (single-column rows)."""
    return {(node,) for node in iter_descendants(relation, root)}
