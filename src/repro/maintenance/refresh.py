"""Full refresh: recompute a materialized view from scratch.

The fallback the incremental engines measure themselves against, and the
correct path whenever incremental maintenance is unsound (rules with
negation) or expected to lose (the DRed cost heuristic).  A refresh clears
the plan's materialized relations and replays the plan's evaluation order
with the ordinary run-time library — semi-naive for cliques, relational
algebra for non-recursive nodes — pointed at the persistent ``mv_`` tables
instead of scratch ``d_`` tables.

All statements run under the ``maint_refresh`` phase.
"""

from __future__ import annotations

from typing import Mapping

from ..datalog.pcg import Clique
from ..dbms.engine import Database
from ..dbms.schema import quote_identifier
from ..errors import EvaluationError
from ..runtime.context import EvaluationContext
from ..runtime.relalg import evaluate_nonrecursive
from ..runtime.seminaive import evaluate_clique_seminaive
from .plan import MaintenancePlan

PHASE_MAINT_REFRESH = "maint_refresh"


def full_refresh(
    database: Database,
    plan: MaintenancePlan,
    table_of: Mapping[str, str],
) -> int:
    """Recompute every materialized relation of ``plan`` from scratch.

    Pre-seeding the evaluation context with the ``mv_`` tables makes the
    evaluators' ``materialise()`` calls no-ops and keeps the persistent
    relations out of the context's cleanup.  Returns the recomputed tuple
    count across the plan's derived relations.
    """
    if not plan.order:
        raise EvaluationError(
            f"plan for {plan.view!r} has no evaluation order; merged plans "
            "cannot be refreshed as a unit"
        )
    with database.span(
        "maint_refresh", "maintenance", PHASE_MAINT_REFRESH, view=plan.view
    ) as span:
        for predicate in plan.derived:
            database.execute(
                f"DELETE FROM {quote_identifier(table_of[predicate])}"
            )
        context = EvaluationContext(database, table_of, plan.types)
        for node in plan.order:
            if isinstance(node, Clique):
                evaluate_clique_seminaive(context, node)
            else:
                evaluate_nonrecursive(context, node.predicate, node.rules)
        recomputed = sum(
            database.row_count(table_of[p]) for p in plan.derived
        )
        span.set("tuples", recomputed)
        return recomputed
