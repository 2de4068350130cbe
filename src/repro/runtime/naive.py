"""Naive LFP evaluation as an embedded-SQL application program.

Naive evaluation of a clique ``r_i = f_i(r_1, ..., r_n)`` recomputes every
``f_i`` from scratch each iteration against the *full* relations of the
previous iteration, then checks whether anything changed.  The paper's
implementation — and ours — pays the costs its Test 6 dissects:

* **temp_tables**: emptying the per-iteration scratch relations and the
  table copy back into the result relations;
* **rhs_eval**: one SELECT per rule per iteration, recomputing all previously
  derived tuples plus possibly new ones;
* **termination**: a full set difference (``EXCEPT``) per predicate per
  iteration, because the SQL interface offers no early exit.

The paper's program also created and dropped the scratch relations every
iteration.  Here they come from
:meth:`~repro.dbms.engine.Database.scratch_relation`: created once per
connection and emptied with ``DELETE``, so a warm query issues no
per-iteration DDL and its stable table names keep the statement cache hot.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.pcg import Clique
from ..dbms.schema import RelationSchema, quote_identifier
from ..dbms.sqlgen import compile_rule_body, difference_sql, copy_sql, insert_new_tuples_sql
from ..errors import EvaluationError
from .context import (
    PHASE_RHS_EVAL,
    PHASE_TEMP_TABLES,
    PHASE_TERMINATION,
    EvaluationContext,
)

MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class LfpResult:
    """Outcome of one clique LFP computation."""

    iterations: int
    tuples_by_predicate: dict[str, int]

    @property
    def total_tuples(self) -> int:
        """Tuples over all predicates of the clique."""
        return sum(self.tuples_by_predicate.values())


def non_convergence_error(strategy: str, clique: Clique, limit: int) -> EvaluationError:
    """The error every LFP loop raises when it hits the iteration cap.

    Falling out of the loop instead would silently return a *truncated*
    fixed point — tuples derivable in ``limit + 1`` iterations would simply
    be missing from the answer.
    """
    predicates = "+".join(sorted(clique.predicates))
    return EvaluationError(
        f"{strategy} LFP evaluation of clique {predicates!r} did not "
        f"converge within MAX_ITERATIONS={limit} iterations; the fixed "
        "point is incomplete (raise repro.runtime.naive.MAX_ITERATIONS if "
        "the workload legitimately needs more)"
    )


def evaluate_clique_naive(context: EvaluationContext, clique: Clique) -> LfpResult:
    """Compute the least fixed point of ``clique`` by naive iteration.

    Raises:
        EvaluationError: if the loop hits :data:`MAX_ITERATIONS` before
            converging (the result would be a truncated fixed point).
    """
    predicates = sorted(clique.predicates)
    database = context.database
    tracer = database.tracer

    compiled = [(c, compile_rule_body(c)) for c in clique.rules]

    with database.phase(PHASE_TEMP_TABLES):
        for predicate in predicates:
            context.materialise(predicate)

    iterations = 0
    while True:
        if iterations >= MAX_ITERATIONS:
            raise non_convergence_error("naive", clique, MAX_ITERATIONS)
        iterations += 1
        with database.span(
            "iteration", "iteration", iteration=iterations
        ) as it_span:
            scratch: dict[str, str] = {}
            with database.phase(PHASE_TEMP_TABLES):
                for predicate in predicates:
                    types = context.types_of(predicate)
                    scratch[predicate] = database.scratch_relation(
                        f"naive_{predicate}", types
                    )
                    # Seed tuples (e.g. the magic seed) are part of f's output
                    # every iteration, like an exit rule with an empty body.
                    rows = context.seed_rows.get(predicate)
                    if rows:
                        database.insert_rows(
                            RelationSchema(scratch[predicate], types), rows
                        )

            # Recompute every rule in full against the previous iteration's
            # relations — the redundant work that makes naive evaluation slow.
            with database.phase(PHASE_RHS_EVAL):
                for clause, select in compiled:
                    tables = [
                        context.table_of(p) for p in select.table_slots
                    ]
                    sql = insert_new_tuples_sql(
                        scratch[clause.head_predicate],
                        select.render(tables),
                        clause.head.arity,
                    )
                    database.execute(sql, select.parameters)

            # Termination: has any relation gained a tuple?  The SQL interface
            # forces a full set difference per predicate.
            changed = False
            new_tuples = 0
            with database.phase(PHASE_TERMINATION):
                for predicate in predicates:
                    difference = difference_sql(
                        scratch[predicate],
                        context.table_of(predicate),
                        len(context.types_of(predicate)),
                    )
                    rows = database.execute(difference)
                    if rows:
                        changed = True
                        new_tuples += len(rows)
            if tracer is not None:
                # The set-difference rows *are* this iteration's delta.
                it_span.set("delta_tuples", new_tuples)
                tracer.metrics.histogram(
                    "lfp.delta_tuples", (1, 10, 100, 1000, 10000)
                ).observe(new_tuples)
                tracer.metrics.counter("lfp.iterations").inc()

            # Copy the scratch relations into the results — the per-iteration
            # table copying the paper's conclusion 6a targets.
            with database.phase(PHASE_TEMP_TABLES):
                for predicate in predicates:
                    target = context.table_of(predicate)
                    database.execute(f"DELETE FROM {quote_identifier(target)}")
                    database.execute(
                        copy_sql(
                            target,
                            scratch[predicate],
                            len(context.types_of(predicate)),
                        )
                    )

        if not changed:
            break

    sizes = {p: context.record_result_size(p) for p in predicates}
    context.counters.iterations_by_clique[
        "+".join(predicates)
    ] = iterations
    return LfpResult(iterations, sizes)
