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

**How to run a clique** (:func:`decide_clique_strategy`): the recursive-CTE
eligibility check surfaced before execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.clauses import Program, Query
from ..datalog.pcg import Clique, find_cliques
from ..dbms.engine import Database
from ..runtime.lfp_cte import cte_eligibility
from .optimizer import optimization_applies

#: The ``optimize`` value every entry point uses unless the caller names one.
DEFAULT_OPTIMIZE = "auto"


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


@dataclass(frozen=True)
class LfpStrategyDecision:
    """How a clique node should compute its fixpoint, with the evidence.

    Surfaces the recursive-CTE eligibility check (and the backend's
    capability gate) *before* execution, so callers — planners, the
    benchmark drivers, a curious user — can see which path a clique will
    take without running it.  ``evaluate_clique_lfp_cte`` applies exactly
    the same checks at execution time, so the decision here is a faithful
    prediction, never a promise the runtime breaks.
    """

    clique_label: str
    use_cte: bool
    reason: str

    @property
    def strategy_name(self) -> str:
        """The runtime strategy label this decision resolves to."""
        return "lfp_cte" if self.use_cte else "seminaive"


def decide_clique_strategy(
    clique: Clique, database: Database | None = None
) -> LfpStrategyDecision:
    """Decide whether ``clique`` should run as one recursive-CTE statement.

    ``database`` is optional: without one the decision reflects the clique's
    logical shape alone; with one, the backend's recursive-CTE support and
    compound-select limit gate the answer too.
    """
    label = "+".join(sorted(clique.predicates))
    check = cte_eligibility(clique, database)
    return LfpStrategyDecision(label, check.eligible, check.reason)
