"""Insert maintenance: semi-naive delta propagation into materialized views.

New EDB facts can only *add* derived tuples (the rules are positive Horn
clauses), so insert maintenance is the semi-naive differential loop of
:mod:`repro.runtime.seminaive` started from the inserted tuples instead of
from scratch: seed a Δ-relation per updated base predicate with the
genuinely new rows, then ping-pong — each rule is re-run once per body
occurrence that has a delta, with that occurrence redirected at the delta
and every other occurrence at the full (materialized) relation.  Tuples
already present in the view are stripped from the new delta exactly as the
from-scratch loop strips already-known tuples, so the loop terminates as
soon as the update's consequences are exhausted.

The work follows the delta, not the view: every rule runs from a delta
relation into the views' indexes, the strip step probes each view's key
index, and the Δ-relations are two stable scratch relations per derived
predicate (:meth:`~repro.dbms.engine.Database.scratch_relation`), so a
warm run issues no DDL and repeats its statement texts.

All statements run under the ``maint_delta`` phase, so ``Statistics``
breaks maintenance cost out from query execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..dbms.engine import Database
from ..dbms.sqlgen import copy_sql, delete_members_sql, insert_new_tuples_sql
from ..errors import EvaluationError
from ..runtime import naive
from .plan import MaintenancePlan

PHASE_MAINT_DELTA = "maint_delta"


@dataclass(frozen=True)
class DeltaStats:
    """Outcome of one insert-propagation run."""

    iterations: int
    tuples_added: int


def propagate_inserts(
    database: Database,
    plan: MaintenancePlan,
    table_of: Mapping[str, str],
    seed_tables: Mapping[str, str],
) -> DeltaStats:
    """Propagate inserted tuples into the plan's materialized relations.

    Args:
        database: the DBMS handle.
        plan: the (possibly merged) maintenance plan; must be negation-free.
        table_of: predicate-to-table mapping covering the plan's whole
            vocabulary (base facts and materialized relations).
        seed_tables: per updated predicate, a staged relation holding the
            *genuinely new* rows (already deduplicated and stripped of rows
            the relation previously contained).  Seeds may be base or
            derived predicates — the re-derivation phase of DRed reuses
            this loop with derived seeds.

    Raises:
        EvaluationError: when the plan contains negation (the caller should
            have fallen back to a full refresh), or when propagation exceeds
            :data:`repro.runtime.naive.MAX_ITERATIONS`.
    """
    if plan.has_negation:
        raise EvaluationError(
            f"plan for {plan.view!r} contains negation; delta propagation "
            "is unsound — use a full refresh"
        )
    delta: dict[str, str] = dict(seed_tables)
    iterations = 0
    added = 0
    with database.span(
        "maint_delta", "maintenance", PHASE_MAINT_DELTA, view=plan.view
    ) as maint_span:
        while delta:
            if iterations >= naive.MAX_ITERATIONS:
                raise EvaluationError(
                    f"insert maintenance of {plan.view!r} did not "
                    f"converge within MAX_ITERATIONS="
                    f"{naive.MAX_ITERATIONS} iterations"
                )
            iterations += 1
            added_before = added
            with database.span(
                "iteration", "iteration", iteration=iterations
            ) as it_span:
                new_delta: dict[str, str] = {}
                for clause, select in plan.compiled:
                    head = clause.head_predicate
                    for index, predicate in enumerate(select.positive_predicates):
                        if predicate not in delta:
                            continue
                        if head not in new_delta:
                            # Ping-pong: never the relation this
                            # iteration reads its delta from.
                            new_delta[head] = database.scratch_relation(
                                f"mdelta_{head}_{iterations % 2}",
                                plan.types[head],
                            )
                        tables = [
                            delta[p] if j == index else table_of[p]
                            for j, p in enumerate(select.table_slots)
                        ]
                        database.execute(
                            insert_new_tuples_sql(
                                new_delta[head],
                                select.render(tables),
                                clause.head.arity,
                            ),
                            select.parameters,
                        )
                # Strip tuples the views already hold, fold the survivors
                # in; the surviving delta drives the next iteration.
                next_delta: dict[str, str] = {}
                for head, name in new_delta.items():
                    arity = len(plan.types[head])
                    database.execute(
                        delete_members_sql(name, table_of[head], arity)
                    )
                    count = database.row_count(name)
                    if count:
                        database.execute(copy_sql(table_of[head], name, arity))
                        added += count
                        next_delta[head] = name
                delta = next_delta
                it_span.set("delta_tuples", added - added_before)
        maint_span.set("iterations", iterations)
        maint_span.set("tuples_added", added)
    return DeltaStats(iterations, added)
