"""LFP evaluation as one recursive-CTE statement per plan.

The paper's central complaint about the SQL interface is that the fixpoint
loop lives in the *application*: every iteration pays temp-table DDL, RHS
SELECTs, set differences, and a termination probe as separate statements.
Modern engines can run the entire least-fixpoint inside the DBMS as one
``WITH RECURSIVE`` statement — ``UNION`` (not ``UNION ALL``) gives set
semantics and termination for free, and the engine's own memoisation
replaces the delta bookkeeping.

:func:`fuse_program` compiles a whole evaluation order list into one
statement (:class:`FusedProgram`): one CTE per derived predicate, the answer
SELECT last, nothing created, filled, counted or dropped.  A clique of
several mutually recursive predicates becomes one recursive CTE over their
tagged union, ``k(tag, c0, ...)``, one arm per rule, narrower predicates
padded with ``NULL``; a plain CTE per member then selects its rows back out
(``... FROM k WHERE tag = '<p>'``), so readers see one relation per
predicate as before.  A one-predicate clique is the degenerate union: its
CTE is the member's own, untagged.

A plan fuses exactly when every clique qualifies (:func:`cte_eligibility`):

* every recursive rule is **linear**: its body references the clique's
  predicates exactly once — SQL's own restriction on a recursive select,
  which may read the recursive table once and not in a subquery;
* **no rule uses negation** (a negated reference to the table under
  construction is not expressible; this dialect has no aggregation, the
  other classic disqualifier); and
* the backend runs recursive CTEs, with at most its compound-select limit
  of arms (``BackendCapabilities.max_compound_select``), and the statement
  stays within :data:`MAX_REFERENCE_PATHS`.

Any other plan runs node by node with the semi-naive loop; the reason is
recorded in ``EvaluationCounters.strategy_by_clique``, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..datalog.adornment import (
    BOUND,
    adornment_of,
    head_bound_variables,
    sip_order,
)
from ..datalog.clauses import Clause, Query
from ..datalog.evalgraph import EvaluationNode, PredicateNode
from ..datalog.magic import QuerySeed, is_magic_name
from ..datalog.pcg import Clique
from ..datalog.terms import Atom
from ..dbms.backends import BackendCapabilities
from ..dbms.catalog import fact_table_name
from ..dbms.engine import Database
from ..dbms.schema import column_name, quote_identifier
from ..dbms.sqlgen import compile_rule_body, string_literal
from .context import derived_table_name

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
    for clause in clique.rules:
        if any(atom.negated for atom in clause.body):
            return CteEligibility(
                False, f"negated atom in rule: {clause}"
            )
    for clause in clique.recursive_rules:
        occurrences = sum(
            1 for atom in clause.body if atom.predicate in clique.predicates
        )
        if occurrences != 1:
            return CteEligibility(
                False,
                f"non-linear recursive rule ({occurrences} occurrences of "
                f"{sorted(clique.predicates)}): {clause}",
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
    return CteEligibility(True, "linear clique, no negation")


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
    arities: Mapping[str, int],
    anchor_rules: Sequence[Clause],
    recursive_rules: Sequence[Clause],
    seed_rows: Mapping[str, Sequence[tuple]],
    table_sql: Callable[[str], str],
    cross_join: bool = False,
) -> "tuple[str, tuple] | None":
    """The compound SELECT defining one CTE, with its parameters.

    ``arities`` names the predicates the CTE holds, with their arities: one
    predicate, or a mutually recursive clique's members, whose rows then
    carry a leading ``tag`` column and ``NULL`` padding up to the widest
    member.  Anchor arms (``anchor_rules``, then one ``SELECT ?, ...`` per
    ``seed_rows`` row) precede the recursive arms; ``UNION`` joins them,
    keeping set semantics (and with it, termination on cyclic data).
    ``table_sql`` maps each body predicate to the quoted SQL name it reads —
    the CTE itself for a recursive occurrence.  A one-column magic guard in
    a rule body (an atom over another node's magic set) compiles to an
    ``IN`` semi-join: joined, SQLite makes the magic CTE the outer loop of
    the recursive step and scans it once per queued row.  Returns ``None``
    when nothing anchors the CTE: its fixpoint is then empty and the
    recursive arms never run.
    """
    width = max(arities.values())
    members = frozenset(arities)

    def arm(predicate: str, select_sql: str) -> str:
        if len(members) == 1:
            return select_sql
        # A rule arm's select list holds only column references, ``?`` and
        # aliases, so its first " FROM " ends it (a seed arm has none).
        items, sep, rest = select_sql[len("SELECT "):].partition(" FROM ")
        padding = "".join(
            f", NULL AS {column_name(i)}" for i in range(arities[predicate], width)
        )
        return f"SELECT {string_literal(predicate)} AS tag, {items}{padding}{sep}{rest}"

    def rule_arm(clause: Clause) -> str:
        select_sql = _rule_arm(clause, members, table_sql, parameters, cross_join)
        return arm(clause.head_predicate, select_sql)

    arms: list[str] = []
    parameters: list = []
    arms.extend(rule_arm(clause) for clause in anchor_rules)
    for predicate, rows in seed_rows.items():
        columns = ", ".join(f"? AS {column_name(i)}" for i in range(arities[predicate]))
        for row in rows:
            arms.append(arm(predicate, f"SELECT {columns}"))
            parameters.extend(row)
    if not arms:
        return None
    arms.extend(rule_arm(clause) for clause in recursive_rules)
    return " UNION ".join(arms), tuple(parameters)


def _rule_arm(
    clause: Clause,
    members: frozenset[str],
    table_sql: Callable[[str], str],
    parameters: list,
    cross_join: bool,
) -> str:
    # One-column guards only: a one-column IN subquery is portable SQL, a
    # row-value one is not, and a wider guard (a bb magic set) measured
    # within 1.2x of it as a join.  A guard over the CTE's own predicates
    # stays a join: the recursive table may not appear in a subquery.
    guards = frozenset(
        atom.predicate
        for atom in clause.body
        if is_magic_name(atom.predicate)
        and atom.predicate not in members
        and atom.arity == 1
    )
    select = compile_rule_body(
        clause,
        semijoin=guards,
        tagged=members if len(members) > 1 else frozenset(),
        cross_join=cross_join,
    )
    parameters.extend(select.parameters)
    return _without_distinct(
        select.sql.format(*(table_sql(p) for p in select.table_slots))
    )


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
    The non-recursive rule bodies a plain plan's goal binds are joined in
    SIP order (:func:`sip_rules`).  The statement text is the same for
    every query of the form.
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

    def expansion(clauses: Sequence[Clause], own: frozenset[str] = frozenset()) -> int:
        return sum(
            1 if atom.predicate in own else paths.get(atom.predicate, 1)
            for clause in clauses
            for atom in clause.body
        )

    defined = {p for node in order for p in node.predicates}
    ordered = sip_rules(query, order)
    ctes: list[str] = []
    parameters: list = []
    cliques: list[str] = []
    total = max_terms = 0
    nodes = [((p,), (), ()) for p in sorted(set(seeds_of) - defined)]
    for node in order:
        if isinstance(node, Clique):
            if not cte_eligibility(node):
                return None
            members = tuple(sorted(node.predicates))
            cliques.append("+".join(members))
            nodes.append((members, node.exit_rules, node.recursive_rules))
        else:
            nodes.append(((node.predicate,), ordered.get(node.predicate, node.rules), ()))
    for members, anchor_rules, recursive_rules in nodes:
        # One member: its own CTE.  Several: one CTE over their tagged
        # union, then one per member selecting its rows back out.
        tagged = len(members) > 1
        name = f"k_{'+'.join(members)}" if tagged else derived_table_name(members[0])
        quoted = quote_identifier(name)
        seeds = {p: seeds_of[p] for p in members if p in seeds_of}
        try:
            arities = {p: len(types[p]) for p in members}
            body = cte_body(
                arities,
                anchor_rules,
                recursive_rules,
                seeds,
                lambda p: quoted if p in arities else quote_identifier(tables[p]),
                cross_join=members[0] in ordered,
            )
        except KeyError:
            # Unknown types or an unplaced body predicate: the node-by-node
            # path reports it with a proper EvaluationError.
            return None
        columns = [column_name(i) for i in range(max(arities.values()))]
        if tagged:
            columns.insert(0, "tag")
        if body is None:
            # Nothing anchors it: the fixpoint is empty.
            nulls = ", ".join(f"NULL AS {column}" for column in columns)
            body = (f"SELECT {nulls} WHERE 1 = 0", ())
        arms, arm_parameters = body
        ctes.append(f"{quoted}({', '.join(columns)}) AS ({arms})")
        parameters.extend(arm_parameters)
        for predicate in members:
            if tagged:
                own = ", ".join(column_name(i) for i in range(arities[predicate]))
                tables[predicate] = derived_table_name(predicate)
                ctes.append(
                    f"{quote_identifier(tables[predicate])}({own}) AS (SELECT {own} "
                    f"FROM {quoted} WHERE tag = {string_literal(predicate)})"
                )
            else:
                tables[predicate] = name
        max_terms = max(
            max_terms,
            len(anchor_rules) + len(recursive_rules) + sum(map(len, seeds.values())),
        )
        if recursive_rules:
            total += expansion(anchor_rules + recursive_rules, frozenset(members))
            paths.update(dict.fromkeys(members, 1))
        else:
            paths[members[0]] = max(1, expansion(anchor_rules))
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


def sip_rules(
    query: Query, order: Sequence[EvaluationNode]
) -> dict[str, tuple[Clause, ...]]:
    """The non-recursive predicates of a plain plan to join in SIP order.

    SQLite flattens a chain of single-arm CTEs into one join and, with no
    statistics, may start it anywhere: a 40-rule chain bound at its root
    started from a full index scan in the middle of the chain.  The goal's
    constants are passed sideways instead, as the magic rewrite's adornment
    pass passes them (:func:`~repro.datalog.adornment.sip_order`), from
    callers to callees (``order`` reversed).  A predicate is returned, with
    its rules' bodies in SIP order, when every reference to it is positive
    and has the same adornment, that adornment binds something, and each
    reference is the goal or an atom of a body ordered this way.  Recursive
    cliques keep their text, and so does everything they call: a recursive
    CTE is computed whole, whatever binding its caller has.  A rewritten
    plan gets nothing here: the goal names none of its (adorned)
    predicates, and its bodies are in SIP order, bound by magic guards.
    """
    calls: dict[str, set[str | None]] = {}

    def call(atom: Atom, adornment: str | None) -> None:
        calls.setdefault(atom.predicate, set()).add(None if atom.negated else adornment)

    for goal in query.goals:
        call(goal, adornment_of(goal, set()))
    chosen: dict[str, tuple[Clause, ...]] = {}
    for node in reversed(order):
        seen = calls.get(node.predicate, ()) if isinstance(node, PredicateNode) else ()
        adornment = next(iter(seen)) if len(seen) == 1 else None
        if adornment is None or BOUND not in adornment:
            for clause in node.rules:
                for atom in clause.body:
                    call(atom, None)
            continue
        ordered = []
        for clause in node.rules:
            bound = head_bound_variables(clause.head, adornment)
            body = []
            for index in sip_order(clause.body, bound):
                atom = clause.body[index]
                call(atom, adornment_of(atom, bound))
                if not atom.negated:
                    bound.update(atom.variables)
                body.append(atom)
            ordered.append(Clause(clause.head, tuple(body)))
        chosen[node.predicate] = tuple(ordered)
    return chosen
