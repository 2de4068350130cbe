"""Planning decisions taken at compile time, once per query form.

**Whether to rewrite** (paper section 4.2 step 5 / conclusion 4).  The
paper measures a selectivity crossover beyond which magic sets *costs* time
and suggests switching it on for selective queries only.  ``optimize="auto"``
— the default of every entry point (:data:`DEFAULT_OPTIMIZE`) — decides from
the query's *structure* instead: rewrite iff the single goal has a constant
and a recursive clique is reachable from it (:func:`decide_rewrite`).  The
structure is the same for every query of a form, so the decision is taken
when the form is compiled and cached with its plan; a per-constant estimate
would need a per-constant plan.  No data probe is worth that key: with the
rewritten program's magic guards compiled to semi-joins (see
:func:`repro.dbms.sqlgen.compile_rule_body`), the worst end of the crossover
— a root-bound query reaching the whole relation — costs about 1.3x the
plain plan, while a leaf-bound query wins about 20x.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.clauses import Program, Query
from ..datalog.pcg import find_cliques
from .optimizer import optimization_applies

#: The ``optimize`` value every entry point uses unless the caller names one.
DEFAULT_OPTIMIZE = "auto"


def check_optimize(value: object) -> None:
    """Raise ``ValueError`` unless ``value`` is ``True``, ``False`` or ``"auto"``."""
    if not (isinstance(value, bool) or value == "auto"):
        raise ValueError(f"optimize must be True, False or 'auto', got {value!r}")


@dataclass(frozen=True)
class AdaptiveDecision:
    """The ``optimize="auto"`` verdict for one query form, with its reason."""

    use_magic: bool
    reason: str


def decide_rewrite(relevant_rules: Program, query: Query) -> AdaptiveDecision:
    """Whether ``optimize="auto"`` rewrites ``query``'s form.

    ``relevant_rules`` are the rules reachable from the query's goals, so
    any clique among them is reachable from the goal.
    """
    if not optimization_applies(query, relevant_rules.derived_predicates):
        return AdaptiveDecision(
            False, "no single bound goal over a derived predicate"
        )
    if not find_cliques(relevant_rules):
        return AdaptiveDecision(
            False, "no recursive clique is reachable from the goal"
        )
    return AdaptiveDecision(
        True, "the bound goal reaches a recursive clique"
    )
