"""A generalized LFP operator "inside the DBMS" (paper conclusion #6).

The paper argues that evaluating recursive equations as an application
program over SQL is inherently inefficient — per-iteration temporary tables,
full table copies, and complete set differences for the termination check —
and that the DBMS interface should instead offer an LFP operator that:

(a) avoids table copying by manipulating buffers in place,
(b) stops the termination check at the first new tuple, and
(c) adapts access paths to the relation sizes.

This module implements that operator as close to the metal as SQLite allows:

* the result relation is created **once**, ``WITHOUT ROWID`` with a primary
  key over all columns, so duplicate elimination is an index probe instead of
  a full ``EXCEPT`` (answers (b) and (c));
* deltas are keyed the same way and filled with ``INSERT OR IGNORE`` — no
  per-iteration ``CREATE``/``DROP``/copy; the delta rotates by a catalog
  ``RENAME`` (answers (a));
* the new-tuple count falls out of ``changes()`` — there is no separate
  termination query at all.

The ablation benchmark compares it against the application-program
strategies of :mod:`repro.runtime.naive` / :mod:`repro.runtime.seminaive`.
"""

from __future__ import annotations

from ..datalog.pcg import Clique
from ..dbms.schema import quote_identifier
from ..dbms.sqlgen import compile_rule_body
from .context import EvaluationContext
from . import naive
from .naive import LfpResult, non_convergence_error
from .seminaive import evaluate_clique_seminaive


def _create_keyed_table(
    context: EvaluationContext, name: str, predicate: str, temporary: bool
) -> None:
    """A relation with a primary key spanning all columns (set semantics)."""
    types = context.types_of(predicate)
    columns = ", ".join(f"c{i} {t}" for i, t in enumerate(types))
    key = ", ".join(f"c{i}" for i in range(len(types)))
    keyword = "CREATE TEMPORARY TABLE" if temporary else "CREATE TABLE"
    context.database.execute(
        f"{keyword} {quote_identifier(name)} "
        f"({columns}, PRIMARY KEY ({key})) WITHOUT ROWID"
    )


def evaluate_clique_lfp_operator(
    context: EvaluationContext, clique: Clique
) -> LfpResult:
    """Least fixed point of ``clique`` via the in-DBMS operator strategy.

    The delta relations are connection-private ``temp`` tables, dropped
    however the loop ends, so an aborted run leaves nothing in the database
    file.

    Raises:
        EvaluationError: if the loop hits
            :data:`repro.runtime.naive.MAX_ITERATIONS` before the deltas
            drain (the result would be a truncated fixed point).
    """
    capabilities = context.database.capabilities
    if not (
        capabilities.supports_without_rowid
        and capabilities.supports_changes_function
    ):
        # The operator's storage tricks (WITHOUT ROWID keys, INSERT OR
        # IGNORE, changes()) are SQLite dialect; on other engines the
        # portable iteration loop computes the same fixpoint.
        return evaluate_clique_seminaive(context, clique)
    predicates = sorted(clique.predicates)
    database = context.database

    # The operator manages its own result relations (keyed), registered with
    # the context so downstream nodes and the answer join can read them.
    delta: dict[str, str] = {}
    previous: dict[str, str] = {}
    for predicate in predicates:
        if not context.has_table(predicate):
            result_name = f"d_{predicate}"
            database.drop_relation(result_name)
            _create_keyed_table(
                context, result_name, predicate, database.temp_only
            )
            context.adopt_table(predicate, result_name)
        delta[predicate] = f"lfpdelta_{predicate}"
        previous[predicate] = f"lfpprev_{predicate}"
    try:
        return _run_operator(context, clique, predicates, delta, previous)
    finally:
        for predicate in predicates:
            for name in (delta[predicate], previous[predicate]):
                database.execute(f"DROP TABLE IF EXISTS temp.{quote_identifier(name)}")


def _run_operator(
    context: EvaluationContext,
    clique: Clique,
    predicates: list[str],
    delta: dict[str, str],
    previous: dict[str, str],
) -> LfpResult:
    """Create the ``temp`` delta relations and iterate to the fixed point."""
    database = context.database
    tracer = context.tracer
    for predicate in predicates:
        for name in (delta[predicate], previous[predicate]):
            database.execute(f"DROP TABLE IF EXISTS temp.{quote_identifier(name)}")
            _create_keyed_table(context, name, predicate, temporary=True)
        rows = context.seed_rows.get(predicate)
        if rows:
            columns = ", ".join("?" for __ in context.types_of(predicate))
            database.executemany(
                f"INSERT OR IGNORE INTO {quote_identifier(delta[predicate])} "
                f"VALUES ({columns})",
                rows,
            )

    compiled_exit = [(c, compile_rule_body(c)) for c in clique.exit_rules]
    compiled_recursive = [(c, compile_rule_body(c)) for c in clique.recursive_rules]

    def insert_select(head: str, select_sql: str, parameters: tuple) -> None:
        database.execute(
            f"INSERT OR IGNORE INTO {quote_identifier(delta[head])} {select_sql}",
            parameters,
        )

    def fold_deltas() -> int:
        """Purge known tuples, append the rest to the results, rotate deltas.

        Returns the number of genuinely new tuples (the termination signal,
        straight from ``changes()`` — no set-difference query).
        """
        produced = 0
        for predicate in predicates:
            arity = len(context.types_of(predicate))
            columns = ", ".join(f"c{i}" for i in range(arity))
            d = quote_identifier(delta[predicate])
            result = quote_identifier(context.table_of(predicate))
            database.execute(
                f"DELETE FROM {d} WHERE ({columns}) IN "
                f"(SELECT {columns} FROM {result})"
            )
            database.execute(f"INSERT OR IGNORE INTO {result} SELECT * FROM {d}")
            produced += int(database.execute("SELECT changes()")[0][0])
            # Rotate: delta becomes the previous-delta, an emptied table takes
            # its place (a catalog rename, not a copy).
            database.execute(f"DELETE FROM {quote_identifier(previous[predicate])}")
            delta[predicate], previous[predicate] = (
                previous[predicate],
                delta[predicate],
            )
        return produced

    # Seed iteration: context seeds (already in the deltas) plus exit rules.
    with tracer.span("iteration", category="iteration", iteration=1) as it_span:
        for clause, select in compiled_exit:
            tables = [context.table_of(p) for p in select.table_slots]
            insert_select(clause.head_predicate, select.render(tables), select.parameters)
        produced = fold_deltas()
        it_span.set("delta_tuples", produced)
        if tracer.enabled:
            tracer.metrics.histogram(
                "lfp.delta_tuples", (1, 10, 100, 1000, 10000)
            ).observe(produced)
            tracer.metrics.counter("lfp.iterations").inc()

    iterations = 1
    while produced:
        if iterations >= naive.MAX_ITERATIONS:
            raise non_convergence_error(
                "lfp_operator", clique, naive.MAX_ITERATIONS
            )
        iterations += 1
        with tracer.span(
            "iteration", category="iteration", iteration=iterations
        ) as it_span:
            for clause, select in compiled_recursive:
                for index, predicate in enumerate(select.positive_predicates):
                    if predicate not in clique.predicates:
                        continue
                    tables = [
                        previous[p] if j == index else context.table_of(p)
                        for j, p in enumerate(select.table_slots)
                    ]
                    insert_select(
                        clause.head_predicate, select.render(tables), select.parameters
                    )
            produced = fold_deltas()
            it_span.set("delta_tuples", produced)
            if tracer.enabled:
                tracer.metrics.histogram(
                    "lfp.delta_tuples", (1, 10, 100, 1000, 10000)
                ).observe(produced)
                tracer.metrics.counter("lfp.iterations").inc()

    sizes = {p: context.record_result_size(p) for p in predicates}
    context.counters.iterations_by_clique["+".join(predicates)] = iterations
    return LfpResult(iterations, sizes)
