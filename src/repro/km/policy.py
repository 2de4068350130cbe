"""Planning decisions taken at compile time, once per query form.

**Which rewrite** (paper section 4.2 step 5 / conclusion 4).  The paper
measures a selectivity crossover beyond which magic sets *costs* time and
suggests switching it on for selective queries only.  ``optimize="auto"``
— the default of every entry point (:data:`DEFAULT_OPTIMIZE`) — decides from
the query's *structure* instead (:func:`decide_rewrite`): no rewrite unless
the single goal has a constant and a recursive clique is reachable from it;
then the factored rewrite when the clique is linear and passes its free
arguments through (the answer is the exit rules over the magic set, no
recursion over the answer), and generalized magic sets otherwise.  The
structure is the same for every query of a form, so the decision is taken
when the form is compiled and cached with its plan; a per-constant estimate
would need a per-constant plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.clauses import Program, Query
from ..datalog.magic import factored_rewrite
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
    """The ``optimize="auto"`` verdict for one query form, with its reason.

    ``rewrite`` is ``"plain"``, ``"magic"`` or ``"factored"``.
    """

    rewrite: str
    reason: str

    @property
    def use_magic(self) -> bool:
        """Whether the plan computes a magic set (magic or factored)."""
        return self.rewrite != "plain"


def decide_rewrite(relevant_rules: Program, query: Query) -> AdaptiveDecision:
    """Whether ``optimize="auto"`` rewrites ``query``'s form.

    ``relevant_rules`` are the rules reachable from the query's goals, so
    any clique among them is reachable from the goal.
    """
    derived = relevant_rules.derived_predicates
    if not optimization_applies(query, derived):
        return AdaptiveDecision(
            "plain", "no single bound goal over a derived predicate"
        )
    if not find_cliques(relevant_rules):
        return AdaptiveDecision(
            "plain", "no recursive clique is reachable from the goal"
        )
    if factored_rewrite(relevant_rules, query, derived) is not None:
        return AdaptiveDecision(
            "factored",
            "the bound goal reaches a linear recursive clique that passes "
            "its free arguments through",
        )
    return AdaptiveDecision(
        "magic", "the bound goal reaches a recursive clique"
    )
