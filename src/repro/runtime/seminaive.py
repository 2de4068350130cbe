"""Semi-naive (differential) LFP evaluation as an embedded-SQL program.

Semi-naive evaluation computes, per iteration, only the *differential* of the
right-hand sides: each recursive rule is re-run once per recursive body
occurrence with that occurrence pointed at the previous iteration's delta
relation (paper section 4, "the differential approach described in [12]").
New tuples are separated from old ones with a set difference, become the next
delta, and are unioned into the result.

The phase names match :mod:`repro.runtime.naive` so Test 6 can compare the
breakdowns.  Termination is one ``EXISTS`` probe over all deltas per
iteration (a single statement, not one ``COUNT(*)`` scan per predicate).
The deltas ping-pong between two scratch relations per predicate
(:meth:`~repro.dbms.engine.Database.scratch_relation`): created once per
connection and emptied with ``DELETE``, so a warm query issues no
per-iteration DDL and repeats its statement texts.
"""

from __future__ import annotations

from ..datalog.pcg import Clique
from ..dbms.schema import quote_identifier
from ..dbms.sqlgen import compile_rule_body, copy_sql, insert_new_tuples_sql
from .context import (
    PHASE_RHS_EVAL,
    PHASE_TEMP_TABLES,
    PHASE_TERMINATION,
    EvaluationContext,
)
from . import naive
from .naive import LfpResult, non_convergence_error

# Re-exported for backward compatibility; the authoritative (and
# monkeypatchable) value lives in repro.runtime.naive.
MAX_ITERATIONS = naive.MAX_ITERATIONS


def _delta_cardinality(context: EvaluationContext, tables: list[str]) -> int:
    """Total rows across delta relations, via the *uncounted* observe path.

    Only called when tracing is enabled; must not disturb the measured
    statement stream, so it bypasses ``Database.execute`` entirely.
    """
    total = 0
    for name in tables:
        rows = context.database.observe(
            f"SELECT COUNT(*) FROM {quote_identifier(name)}"
        )
        total += int(rows[0][0])
    return total


def _any_delta_tuples_sql(delta_tables: list[str]) -> str:
    """One EXISTS-style probe over every delta relation.

    Replaces the per-predicate ``COUNT(*)`` termination probes: SQLite stops
    each EXISTS at the first row, and the whole check is a single statement.
    """
    probes = " OR ".join(
        f"EXISTS (SELECT 1 FROM {quote_identifier(name)})"
        for name in delta_tables
    )
    return f"SELECT {probes}"


def evaluate_clique_seminaive(
    context: EvaluationContext, clique: Clique
) -> LfpResult:
    """Compute the least fixed point of ``clique`` by semi-naive iteration.

    Raises:
        EvaluationError: if the loop hits
            :data:`repro.runtime.naive.MAX_ITERATIONS` before the delta
            drains (the result would be a truncated fixed point).
    """
    predicates = sorted(clique.predicates)
    database = context.database
    tracer = database.tracer

    exit_selects = [(c, compile_rule_body(c)) for c in clique.exit_rules]
    recursive = [(c, compile_rule_body(c)) for c in clique.recursive_rules]

    def delta_relations(iteration: int) -> dict[str, str]:
        """Each predicate's emptied delta for ``iteration``: ping-pong, never
        the relation the previous iteration's delta is in."""
        with database.phase(PHASE_TEMP_TABLES):
            return {
                p: database.scratch_relation(
                    f"seminaive_{p}_{iteration % 2}", context.types_of(p)
                )
                for p in predicates
            }

    with database.phase(PHASE_TEMP_TABLES):
        for predicate in predicates:
            context.materialise(predicate)
            # Seed tuples (e.g. the magic seed fact) join the result before
            # the exit-rule pass, so the first delta carries them too.
            context.insert_seed_rows(predicate)

    # Iteration 1: exit rules seed both the result and the first delta.
    delta = delta_relations(1)
    with database.span("iteration", "iteration", iteration=1) as it_span:
        with database.phase(PHASE_RHS_EVAL):
            for clause, select in exit_selects:
                tables = [context.table_of(p) for p in select.table_slots]
                sql = insert_new_tuples_sql(
                    context.table_of(clause.head_predicate),
                    select.render(tables),
                    clause.head.arity,
                )
                database.execute(sql, select.parameters)
        with database.phase(PHASE_TEMP_TABLES):
            for predicate in predicates:
                database.execute(
                    copy_sql(
                        delta[predicate],
                        context.table_of(predicate),
                        len(context.types_of(predicate)),
                    )
                )
        if tracer is not None:
            cardinality = _delta_cardinality(context, [delta[p] for p in predicates])
            it_span.set("delta_tuples", cardinality)
            tracer.metrics.histogram("lfp.delta_tuples", (1, 10, 100, 1000, 10000)).observe(
                cardinality
            )
            tracer.metrics.counter("lfp.iterations").inc()

    iterations = 1  # the exit-rule pass counts as the first iteration
    while True:
        with database.phase(PHASE_TERMINATION):
            probe = _any_delta_tuples_sql([delta[p] for p in predicates])
            empty = not database.execute(probe)[0][0]
        if empty:
            break
        if iterations >= naive.MAX_ITERATIONS:
            raise non_convergence_error(
                "semi-naive", clique, naive.MAX_ITERATIONS
            )
        iterations += 1

        with database.span(
            "iteration", "iteration", iteration=iterations
        ) as it_span:
            new_delta = delta_relations(iterations)

            # Differential RHS: one pass per recursive occurrence, with that
            # occurrence redirected to the delta relation.
            with database.phase(PHASE_RHS_EVAL):
                for clause, select in recursive:
                    for index, predicate in enumerate(select.positive_predicates):
                        if predicate not in clique.predicates:
                            continue
                        tables = [
                            delta[p] if j == index else context.table_of(p)
                            for j, p in enumerate(select.table_slots)
                        ]
                        # EXCEPT against the full result keeps only new tuples —
                        # still a set difference, but over the differential.
                        sql = insert_new_tuples_sql(
                            new_delta[clause.head_predicate],
                            select.render(tables),
                            clause.head.arity,
                        )
                        database.execute(sql, select.parameters)

            # Strip already-known tuples from the delta and fold it in.  The
            # DELETE implements delta := delta - result; the termination check
            # then just probes the delta.
            with database.phase(PHASE_TERMINATION):
                for predicate in predicates:
                    arity = len(context.types_of(predicate))
                    columns = ", ".join(f"c{i}" for i in range(arity))
                    database.execute(
                        f'DELETE FROM "{new_delta[predicate]}" WHERE ({columns}) IN '
                        f'(SELECT {columns} FROM "{context.table_of(predicate)}")'
                    )
            if tracer is not None:
                # After the strip, the new delta holds exactly this
                # iteration's genuinely new tuples.
                cardinality = _delta_cardinality(
                    context, [new_delta[p] for p in predicates]
                )
                it_span.set("delta_tuples", cardinality)
                tracer.metrics.histogram(
                    "lfp.delta_tuples", (1, 10, 100, 1000, 10000)
                ).observe(cardinality)
                tracer.metrics.counter("lfp.iterations").inc()
            with database.phase(PHASE_TEMP_TABLES):
                for predicate in predicates:
                    database.execute(
                        copy_sql(
                            context.table_of(predicate),
                            new_delta[predicate],
                            len(context.types_of(predicate)),
                        )
                    )
            delta = new_delta

    sizes = {p: context.record_result_size(p) for p in predicates}
    context.counters.iterations_by_clique["+".join(predicates)] = iterations
    return LfpResult(iterations, sizes)
