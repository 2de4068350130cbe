"""LFP evaluation as recursive CTE statements: per clique, or per program.

The paper's central complaint about the SQL interface is that the fixpoint
loop lives in the *application*: every iteration pays temp-table DDL, RHS
SELECTs, set differences, and a termination probe as separate statements.
Modern engines can run the entire least-fixpoint inside the DBMS as one
``WITH RECURSIVE`` statement — ``UNION`` (not ``UNION ALL``) gives set
semantics and termination for free, and the engine's own memoisation
replaces the delta bookkeeping.

Not every clique qualifies.  The strategy compiles a clique into a single
recursive CTE exactly when:

* the clique has **one predicate** (no mutual recursion — SQL's recursive
  CTE recurses through one table);
* every recursive rule is **linear**: its body references the clique
  predicate exactly once (which is also SQL's own restriction on the
  recursive select);
* **no rule uses negation** (a negated reference to the table under
  construction is not expressible; this dialect has no aggregation, the
  other classic disqualifier); and
* the backend runs recursive CTEs, with at most its compound-select limit
  of arms (``BackendCapabilities.max_compound_select``).

Anything else falls back to the configured iteration loop (semi-naive by
default).  Fallback is silent and recorded in
``EvaluationCounters.strategy_by_clique``; it is never an error.

When *every* clique of a plan qualifies, :func:`fuse_program` goes one step
further and compiles the whole evaluation order list into one statement
(:class:`FusedProgram`): one CTE per derived predicate, the answer SELECT
last, nothing created, filled, counted or dropped.  Both forms build their
arms with :func:`cte_body`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..datalog.clauses import Clause, Query
from ..datalog.evalgraph import EvaluationNode
from ..datalog.magic import QuerySeed, is_magic_name
from ..datalog.pcg import Clique
from ..dbms.backends import BackendCapabilities
from ..dbms.catalog import fact_table_name
from ..dbms.engine import Database
from ..dbms.schema import column_name, quote_identifier
from ..dbms.sqlgen import compile_rule_body
from .context import (
    PHASE_RHS_EVAL,
    PHASE_TEMP_TABLES,
    EvaluationContext,
    derived_table_name,
)
from .naive import LfpResult
from .seminaive import evaluate_clique_seminaive

#: Name of the recursive common table expression inside the generated
#: statement.  Scoped to the statement, so no collision handling is needed.
CTE_NAME = "lfp_cte"

#: Upper bound on the base-table references a fused statement expands to.
#: SQLite copies a non-recursive CTE's body into every reference to it, so a
#: diamond of CTEs doubles per level; and it flattens single-arm CTE chains
#: into one join, which may hold at most 64 tables.  A plan over the bound
#: runs node by node instead.
MAX_REFERENCE_PATHS = 64

_DISTINCT_PREFIX = "SELECT DISTINCT "


@dataclass(frozen=True)
class CteEligibility:
    """Whether a clique qualifies for the recursive-CTE fast path, and why."""

    eligible: bool
    reason: str

    def __bool__(self) -> bool:
        return self.eligible


def cte_eligibility(
    clique: Clique, database: Database | None = None, seed_rows: int = 0
) -> CteEligibility:
    """Decide whether ``clique`` compiles to a single recursive CTE.

    Without ``database`` the verdict reflects the clique's logical shape
    alone; with one, the backend's recursive-CTE support and compound-select
    limit (the clique's rules plus its ``seed_rows`` are the CTE's arms)
    gate it too.
    """
    if len(clique.predicates) != 1:
        return CteEligibility(
            False,
            "mutual recursion: a recursive CTE recurses through one table, "
            f"clique has {sorted(clique.predicates)}",
        )
    (predicate,) = clique.predicates
    for clause in clique.rules:
        if any(atom.negated for atom in clause.body):
            return CteEligibility(
                False, f"negated atom in rule: {clause}"
            )
    for clause in clique.recursive_rules:
        occurrences = sum(
            1 for atom in clause.body if atom.predicate == predicate
        )
        if occurrences != 1:
            return CteEligibility(
                False,
                f"non-linear recursive rule ({occurrences} occurrences of "
                f"{predicate!r}): {clause}",
            )
    if database is not None:
        backend = database.backend.name
        if not database.capabilities.supports_recursive_cte:
            return CteEligibility(
                False, f"backend {backend!r} lacks recursive-CTE support"
            )
        terms = len(clique.rules) + seed_rows
        if not _within_compound_limit(database.capabilities, terms):
            return CteEligibility(
                False,
                f"{terms} compound-select terms exceed the {backend!r} "
                f"backend's limit of {database.capabilities.max_compound_select}",
            )
    return CteEligibility(True, "single-predicate linear clique, no negation")


def _within_compound_limit(capabilities: BackendCapabilities, terms: int) -> bool:
    """Whether one compound SELECT of ``terms`` arms runs on the backend."""
    limit = capabilities.max_compound_select
    return limit is None or terms <= limit


def _without_distinct(select_sql: str) -> str:
    """Strip the leading ``DISTINCT`` from a compiled rule-body SELECT.

    SQL forbids DISTINCT on the recursive select of a CTE; the surrounding
    ``UNION`` compound performs the duplicate elimination anyway, so
    dropping it from every arm is semantics-preserving.  A single-arm
    non-recursive CTE of a fused program stays a bag on purpose: SQLite can
    then flatten a chain of them into one join, and the final ``SELECT
    DISTINCT`` restores set semantics.
    """
    if select_sql.startswith(_DISTINCT_PREFIX):
        return "SELECT " + select_sql[len(_DISTINCT_PREFIX):]
    return select_sql


def cte_body(
    predicate: str,
    anchor_rules: Sequence[Clause],
    recursive_rules: Sequence[Clause],
    seed_rows: Sequence[tuple],
    arity: int,
    table_sql: Callable[[str], str],
) -> "tuple[str, tuple] | None":
    """The compound SELECT defining ``predicate``'s CTE, with its parameters.

    Anchor arms (``anchor_rules``, then one ``SELECT ?, ...`` per seed row)
    precede the recursive arms; ``UNION`` joins them, keeping set semantics
    (and with it, termination on cyclic data).  ``table_sql`` maps each
    body predicate to the quoted SQL name it reads — the CTE itself for a
    recursive occurrence.  A one-column magic guard in a rule body (an atom
    over another predicate's magic set) compiles to an ``IN`` semi-join:
    joined, SQLite makes the magic CTE the outer loop of the recursive step
    and scans it once per queued row.  Returns ``None`` when nothing anchors the
    CTE: its fixpoint is then empty and the recursive arms never run.
    """
    arms: list[str] = []
    parameters: list = []
    for clause in anchor_rules:
        arms.append(_rule_arm(clause, predicate, table_sql, parameters))
    for row in seed_rows:
        arms.append(
            "SELECT "
            + ", ".join(f"? AS {column_name(i)}" for i in range(arity))
        )
        parameters.extend(row)
    if not arms:
        return None
    for clause in recursive_rules:
        arms.append(_rule_arm(clause, predicate, table_sql, parameters))
    return " UNION ".join(arms), tuple(parameters)


def _rule_arm(
    clause: Clause,
    predicate: str,
    table_sql: Callable[[str], str],
    parameters: list,
) -> str:
    # One-column guards only: a one-column IN subquery is portable SQL, a
    # row-value one is not, and a wider guard (a bb magic set) measured
    # within 1.2x of it as a join.
    guards = frozenset(
        atom.predicate
        for atom in clause.body
        if is_magic_name(atom.predicate)
        and atom.predicate != predicate
        and atom.arity == 1
    )
    select = compile_rule_body(clause, semijoin=guards)
    parameters.extend(select.parameters)
    return _without_distinct(
        select.sql.format(*(table_sql(p) for p in select.table_slots))
    )


def compile_clique_cte(
    context: EvaluationContext, clique: Clique, dedup: bool = True
) -> "tuple[str, tuple] | None":
    """The single recursive statement for an eligible ``clique``.

    Returns ``(sql, parameters)``, or ``None`` when the clique has no
    anchor at all (no exit rules and no seed rows) — the fixpoint is then
    the already-materialised (empty) relation and no statement is needed.

    The statement has the shape::

        WITH RECURSIVE "lfp_cte"(c0, ...) AS (
            <exit-rule select>  UNION  <seed VALUES>      -- anchor arms
            UNION
            <recursive-rule select over "lfp_cte">  ...   -- recursive arms
        )
        INSERT INTO "d_pred" (c0, ...)
        SELECT c0, ... FROM "lfp_cte"
        [EXCEPT SELECT c0, ... FROM "d_pred"]

    (with the WITH/INSERT composition delegated to the backend, whose
    dialects disagree on where the clause attaches).  ``dedup`` adds the
    trailing EXCEPT, which keeps the insert idempotent against rows
    already in the result relation; callers that just created the relation
    skip it — the EXCEPT re-sorts the whole fixpoint for nothing.
    """
    (predicate,) = clique.predicates
    arity = len(context.types_of(predicate))
    columns = ", ".join(column_name(i) for i in range(arity))
    quoted_cte = quote_identifier(CTE_NAME)
    body = cte_body(
        predicate,
        clique.exit_rules,
        clique.recursive_rules,
        context.seed_rows.get(predicate, ()),
        arity,
        # The one recursive occurrence reads the CTE itself; every other
        # slot reads its materialised relation as usual.
        lambda p: quoted_cte
        if p == predicate
        else quote_identifier(context.table_of(p)),
    )
    if body is None:
        return None
    arms, parameters = body
    result = quote_identifier(context.table_of(predicate))
    select_stmt = f"SELECT {columns} FROM {quoted_cte}"
    if dedup:
        select_stmt += f" EXCEPT SELECT {columns} FROM {result}"
    sql = context.database.backend.recursive_insert_sql(
        f"{quoted_cte}({columns}) AS ({arms})",
        f"INSERT INTO {result} ({columns})",
        select_stmt,
    )
    return sql, parameters


def evaluate_clique_lfp_cte(
    context: EvaluationContext,
    clique: Clique,
    fallback: Callable[[EvaluationContext, Clique], LfpResult] | None = None,
) -> LfpResult:
    """Evaluate ``clique`` in one recursive-CTE statement when it qualifies.

    Ineligible cliques (and backends without recursive-CTE support) are
    handed to ``fallback`` — :func:`evaluate_clique_seminaive` by default —
    so this strategy never fails where the iteration loop would succeed.
    The choice made for each clique is recorded in
    ``context.counters.strategy_by_clique``.
    """
    if fallback is None:
        fallback = evaluate_clique_seminaive
    label = "+".join(sorted(clique.predicates))
    seeds = sum(len(context.seed_rows.get(p, ())) for p in clique.predicates)
    check = cte_eligibility(clique, context.database, seeds)
    if not check.eligible:
        context.counters.strategy_by_clique[label] = f"fallback: {check.reason}"
        return fallback(context, clique)
    context.counters.strategy_by_clique[label] = "lfp_cte"

    (predicate,) = clique.predicates
    database = context.database
    tracer = context.tracer

    with database.phase(PHASE_TEMP_TABLES):
        # A pre-existing relation (e.g. adopted storage) may already hold
        # rows the INSERT must not duplicate; a freshly materialised one is
        # empty by construction and skips the EXCEPT re-sort entirely.
        fresh = not context.has_table(predicate)
        context.materialise(predicate)
        # Seed rows are NOT pre-inserted here: they ride the CTE as anchor
        # arms and arrive in the result through the one INSERT, mirroring
        # how the iteration strategies let seeds participate in recursion.

    compiled = compile_clique_cte(context, clique, dedup=not fresh)
    # The whole fixpoint is a single statement: one "iteration" from the
    # counters' point of view, and no termination phase at all.
    with tracer.span("iteration", category="iteration", iteration=1) as it_span:
        if compiled is not None:
            sql, parameters = compiled
            with database.phase(PHASE_RHS_EVAL):
                database.execute(sql, parameters)
        if tracer.enabled:
            rows = database.observe(
                "SELECT COUNT(*) FROM "
                + quote_identifier(context.table_of(predicate))
            )
            cardinality = int(rows[0][0])
            it_span.set("delta_tuples", cardinality)
            tracer.metrics.histogram(
                "lfp.delta_tuples", (1, 10, 100, 1000, 10000)
            ).observe(cardinality)
            tracer.metrics.counter("lfp.iterations").inc()
            tracer.metrics.counter("lfp.cte_statements").inc()

    sizes = {predicate: context.record_result_size(predicate)}
    context.counters.iterations_by_clique[label] = 1
    return LfpResult(1, sizes)


# -- whole-program fusion ----------------------------------------------------


@dataclass(frozen=True)
class FusedProgram:
    """A whole evaluation order list compiled into one ``WITH`` clause.

    Executing it is one statement: ``with_clause`` followed by the answer
    SELECT over ``tables`` (predicate -> the CTE or base relation holding
    it).  The text names constants only as ``?`` parameters, so every query
    of one form runs the identical statement.

    Attributes:
        with_clause: ``WITH RECURSIVE <cte>, ...`` in evaluation order
            (empty when the plan derives nothing).
        parameters: the clause's parameters, in textual order; the query
            seed's slots hold ``None``.
        tables: per predicate, the relation name the answer SELECT reads.
        cliques: the clique labels it evaluates (one iteration each).
        max_terms: the most arms any one CTE has, checked against the
            backend's compound-select limit.
        seed_slots: the parameter indexes of the query seed's row, in row
            order, filled per query by :meth:`parameters_for`.
    """

    with_clause: str
    parameters: tuple
    tables: Mapping[str, str]
    cliques: tuple[str, ...]
    max_terms: int
    seed_slots: tuple[int, ...] = ()

    def runs_on(self, database: Database) -> bool:
        """Whether ``database``'s backend can run the statement."""
        capabilities = database.capabilities
        return capabilities.supports_recursive_cte and _within_compound_limit(
            capabilities, self.max_terms
        )

    def parameters_for(self, seed_row: tuple) -> tuple:
        """The clause's parameters with ``seed_row`` in the seed's slots."""
        values = list(self.parameters)
        for index, value in zip(self.seed_slots, seed_row):
            values[index] = value
        return tuple(values)


#: Stands in for each query-seed value while the clause is being built.
_SEED_VALUE = object()


def fuse_program(
    query: Query,
    order: Sequence[EvaluationNode],
    types: Mapping[str, tuple[str, ...]],
    base_predicates: frozenset[str],
    seed_facts: Mapping[str, tuple[tuple, ...]],
    goal_rewrites: Mapping[str, str],
    query_seed: QuerySeed | None = None,
) -> FusedProgram | None:
    """Compile a whole plan into one statement, or ``None`` when it can't be.

    Every clique must be CTE-eligible, and the statement must expand to at
    most :data:`MAX_REFERENCE_PATHS` base references (``query`` supplies the
    goals of the answer SELECT, whose constants do not matter here).  The
    ``query_seed`` row is one more anchor arm of its predicate's CTE, beside
    that predicate's ``seed_facts`` (``UNION`` drops a duplicate), with
    ``?`` slots that :meth:`FusedProgram.parameters_for` fills per query.
    The statement text is the same for every query of the form.
    """
    seeds_of = dict(seed_facts)
    if query_seed is not None:
        placeholder = (_SEED_VALUE,) * len(query_seed.positions)
        seeds_of[query_seed.predicate] = (placeholder,) + tuple(
            seed_facts.get(query_seed.predicate, ())
        )
    tables = {p: fact_table_name(p) for p in base_predicates}
    # Base references one reference to each predicate expands to; a
    # recursive CTE is computed once per statement, so it counts as one.
    paths: dict[str, int] = {}

    def expansion(clauses: Sequence[Clause], own: str | None = None) -> int:
        return sum(
            1 if atom.predicate == own else paths.get(atom.predicate, 1)
            for clause in clauses
            for atom in clause.body
        )

    defined = {p for node in order for p in node.predicates}
    ctes: list[str] = []
    parameters: list = []
    cliques: list[str] = []
    total = max_terms = 0
    nodes = [(p, (), ()) for p in sorted(set(seeds_of) - defined)]
    for node in order:
        if isinstance(node, Clique):
            if not cte_eligibility(node):
                return None
            (predicate,) = node.predicates
            cliques.append(predicate)
            nodes.append((predicate, node.exit_rules, node.recursive_rules))
        else:
            nodes.append((node.predicate, node.rules, ()))
    for predicate, anchor_rules, recursive_rules in nodes:
        name = derived_table_name(predicate)
        quoted = quote_identifier(name)
        seeds = seeds_of.get(predicate, ())
        try:
            arity = len(types[predicate])
            body = cte_body(
                predicate,
                anchor_rules,
                recursive_rules,
                seeds,
                arity,
                lambda p: quoted if p == predicate else quote_identifier(tables[p]),
            )
        except KeyError:
            # Unknown types or an unplaced body predicate: the node-by-node
            # path reports it with a proper EvaluationError.
            return None
        columns = ", ".join(column_name(i) for i in range(arity))
        if body is None:
            # Nothing anchors it: the fixpoint is empty.
            nulls = ", ".join(f"NULL AS {column_name(i)}" for i in range(arity))
            body = (f"SELECT {nulls} WHERE 1 = 0", ())
        arms, arm_parameters = body
        ctes.append(f"{quoted}({columns}) AS ({arms})")
        parameters.extend(arm_parameters)
        tables[predicate] = name
        max_terms = max(
            max_terms, len(anchor_rules) + len(recursive_rules) + len(seeds)
        )
        if recursive_rules:
            total += expansion(anchor_rules + recursive_rules, predicate)
            paths[predicate] = 1
        else:
            paths[predicate] = max(1, expansion(anchor_rules))
    goals = [goal_rewrites.get(g.predicate, g.predicate) for g in query.goals]
    total += sum(paths.get(p, 1) for p in goals)
    if total > MAX_REFERENCE_PATHS or not tables.keys() >= set(goals):
        return None
    seed_slots = tuple(i for i, value in enumerate(parameters) if value is _SEED_VALUE)
    for index in seed_slots:
        parameters[index] = None
    return FusedProgram(
        "WITH RECURSIVE " + ", ".join(ctes) if ctes else "",
        tuple(parameters),
        tables,
        tuple(cliques),
        max_terms,
        seed_slots,
    )
