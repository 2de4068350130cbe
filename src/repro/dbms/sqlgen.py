"""Translation of Horn clause rule bodies into SQL SELECT statements.

This is the heart of the compilation approach: evaluating the body of a rule
``p(t̄) :- q1, ..., qn`` over materialised relations for the ``qi`` is exactly
a project-select-join query.  The Code Generator emits one SELECT per rule
(paper section 3.2.6: "the SQL query to evaluate the body of each rule"), and
the run-time library executes them — possibly with some body occurrences
redirected to delta relations during semi-naive evaluation.

All relations use positional columns ``c0..``; every generated query is
parameterised (constants travel as ``?`` parameters, never spliced into SQL).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..errors import CodeGenerationError
from ..datalog.clauses import Clause
from ..datalog.terms import Atom, Constant, Variable
from .schema import column_name, quote_identifier


@dataclass(frozen=True)
class CompiledSelect:
    """One rule body compiled to SQL.

    ``sql`` contains ``{N}``-style placeholders — ``{0}``, ``{1}``, … — one
    per *table slot*, to be substituted with concrete table names at
    execution time via :meth:`render`.  This lets semi-naive evaluation run
    the same compiled query against full or delta relations without
    recompiling.  ``table_slots`` names the predicate behind each slot: the
    positive body atoms in body order first, then the negated atoms (whose
    slots feed the ``NOT EXISTS`` subqueries).  ``positive_count`` says how
    many leading slots are positive — only those participate in semi-naive
    delta substitution.  ``parameters`` are the constant values, in order.
    """

    sql: str
    parameters: tuple[Any, ...]
    table_slots: tuple[str, ...]
    positive_count: int
    # Per table slot, the column positions participating in cross-atom
    # equality predicates (shared-variable joins and negation bindings) —
    # the raw material for the fast-path index advisor.
    join_columns: tuple[tuple[int, ...], ...] = ()

    def join_columns_of(self, slot: int) -> tuple[int, ...]:
        """Join-equality column positions of one table slot."""
        if slot < len(self.join_columns):
            return self.join_columns[slot]
        return ()

    @property
    def positive_predicates(self) -> tuple[str, ...]:
        """Predicates of the positive body atoms, in body order."""
        return self.table_slots[: self.positive_count]

    def render(self, tables: Sequence[str]) -> str:
        """Substitute concrete table names for the positional placeholders.

        Args:
            tables: one table name per slot (positive atoms first, then
                negated atoms), in :attr:`table_slots` order.
        """
        if len(tables) != len(self.table_slots):
            raise CodeGenerationError(
                f"expected {len(self.table_slots)} table names, "
                f"got {len(tables)}"
            )
        quoted = [quote_identifier(t) for t in tables]
        return self.sql.format(*quoted)

    def render_with(self, table_of: Mapping[str, str]) -> str:
        """Render using a predicate-to-table mapping."""
        return self.render([table_of[p] for p in self.table_slots])


def compile_rule_body(
    clause: Clause, semijoin: frozenset[str] = frozenset()
) -> CompiledSelect:
    """Compile the body of ``clause`` into a SELECT producing its head tuple.

    * Positive body atoms become entries in the FROM list (placeholder table
      names, aliased ``t0, t1, ...`` by body position).
    * Shared variables become join equalities against the variable's first
      positive occurrence.
    * Constants become parameterised equality predicates.
    * Negated atoms become ``NOT EXISTS`` subqueries (their placeholder index
      still counts — the subquery table is positional too).
    * A positive atom over a ``semijoin`` predicate whose every variable
      occurs in some other positive atom becomes a filter instead of a join:
      ``(cols) IN (SELECT c0, ... FROM <slot>)``, its slot placed after the
      negated atoms'.  The atom then only tests membership, so the engine
      cannot make its relation the outer loop of the join.
    * The head terms become the select list; ``SELECT DISTINCT`` performs the
      duplicate elimination relational projection requires.

    Raises:
        CodeGenerationError: for bodies SQL cannot express — an empty positive
            body, or a head/negated variable with no positive occurrence
            (i.e. an unsafe rule; run the safety check first for a friendlier
            error).
    """
    positive = [a for a in clause.body if not a.negated]
    negated = [a for a in clause.body if a.negated]
    if not positive:
        raise CodeGenerationError(
            f"rule {clause} has no positive body atom; cannot compile to SQL"
        )
    guards: list[Atom] = []
    joined = [a for a in positive if a.predicate not in semijoin]
    if semijoin and joined:
        bound = {v for atom in joined for v in atom.variables}
        guards = [
            a
            for a in positive
            if a.predicate in semijoin and set(a.variables) <= bound
        ]
        positive = [a for a in positive if a not in guards]

    placeholders: list[str] = []
    from_items: list[str] = []
    where: list[str] = []
    parameters: list[Any] = []
    location: dict[Variable, str] = {}
    # Where each variable first occurred, as (slot, column position), and the
    # per-slot join columns accumulated for the index advisor.
    first_occurrence: dict[Variable, tuple[int, int]] = {}
    join_columns: list[set[int]] = []

    where_const: list[str] = []
    params_const: list[Any] = []
    for index, atom in enumerate(positive):
        alias = f"t{index}"
        placeholder = f"{{{len(placeholders)}}}"
        placeholders.append(atom.predicate)
        join_columns.append(set())
        from_items.append(f"{placeholder} AS {alias}")
        for position, term in enumerate(atom.terms):
            column = f"{alias}.{column_name(position)}"
            if isinstance(term, Constant):
                where_const.append(f"{column} = ?")
                params_const.append(term.value)
            else:
                first = location.get(term)
                if first is None:
                    location[term] = column
                    first_occurrence[term] = (index, position)
                else:
                    where.append(f"{column} = {first}")
                    join_columns[index].add(position)
                    first_slot, first_position = first_occurrence[term]
                    join_columns[first_slot].add(first_position)

    # Join equalities first, then constant filters, for readable SQL; the
    # parameter list must follow textual ? order, so constants come last.
    where.extend(where_const)
    parameters.extend(params_const)

    for atom in negated:
        subquery, sub_params = _not_exists(
            atom, location, len(placeholders)
        )
        placeholders.append(atom.predicate)
        # The anti-join probes the negated relation by its variable-bound
        # columns, so those count as join columns for its slot.
        join_columns.append(
            {
                position
                for position, term in enumerate(atom.terms)
                if isinstance(term, Variable)
            }
        )
        where.append(subquery)
        parameters.extend(sub_params)

    for atom in guards:
        operands = []
        for term in atom.terms:
            if isinstance(term, Constant):
                operands.append("?")
                parameters.append(term.value)
            else:
                operands.append(location[term])
        columns = ", ".join(column_name(i) for i in range(atom.arity))
        where.append(
            f"({', '.join(operands)}) IN "
            f"(SELECT {columns} FROM {{{len(placeholders)}}})"
        )
        placeholders.append(atom.predicate)
        join_columns.append(
            {i for i, term in enumerate(atom.terms) if isinstance(term, Variable)}
        )

    select_items: list[str] = []
    for position, term in enumerate(clause.head.terms):
        if isinstance(term, Constant):
            select_items.append(f"? AS {column_name(position)}")
            # SQLite binds parameters in textual order; constants in the
            # select list precede the WHERE clause parameters.
        else:
            bound = location.get(term)
            if bound is None:
                raise CodeGenerationError(
                    f"head variable {term} of {clause} has no positive body "
                    "occurrence (unsafe rule)"
                )
            select_items.append(f"{bound} AS {column_name(position)}")

    if not select_items:
        # A fully ground head (boolean query): emit a witness column; the
        # caller maps any row to "true".
        select_items.append("1 AS truth")

    head_constants = [
        t.value for t in clause.head.terms if isinstance(t, Constant)
    ]
    all_parameters = tuple(head_constants) + tuple(parameters)

    sql = "SELECT DISTINCT " + ", ".join(select_items)
    sql += " FROM " + ", ".join(from_items)
    if where:
        sql += " WHERE " + " AND ".join(where)
    return CompiledSelect(
        sql,
        all_parameters,
        tuple(placeholders),
        len(positive),
        tuple(tuple(sorted(columns)) for columns in join_columns),
    )


def _not_exists(
    atom: Atom, location: Mapping[Variable, str], placeholder_index: int
) -> tuple[str, list[Any]]:
    """A NOT EXISTS clause for a negated atom bound by outer columns."""
    alias = "n"
    conditions: list[str] = []
    parameters: list[Any] = []
    for position, term in enumerate(atom.terms):
        column = f"{alias}.{column_name(position)}"
        if isinstance(term, Constant):
            conditions.append(f"{column} = ?")
            parameters.append(term.value)
        else:
            bound = location.get(term)
            if bound is None:
                raise CodeGenerationError(
                    f"variable {term} of negated atom {atom} has no positive "
                    "occurrence (unsafe rule)"
                )
            conditions.append(f"{column} = {bound}")
    body = f"SELECT 1 FROM {{{placeholder_index}}} AS {alias}"
    if conditions:
        body += " WHERE " + " AND ".join(conditions)
    return f"NOT EXISTS ({body})", parameters


def insert_new_tuples_sql(
    target: str, source_select: str, target_arity: int
) -> str:
    """INSERT INTO target the select's rows that are not already present.

    Used by both naive and semi-naive evaluation to grow a derived relation
    while keeping it a set.  The EXCEPT forces the DBMS-level set difference
    the paper identifies as a major cost of the SQL interface.
    """
    columns = ", ".join(column_name(i) for i in range(target_arity))
    quoted = quote_identifier(target)
    return (
        f"INSERT INTO {quoted} ({columns}) "
        f"{source_select} EXCEPT SELECT {columns} FROM {quoted}"
    )


def difference_sql(left: str, right: str, arity: int) -> str:
    """SELECT of rows in ``left`` but not in ``right`` (full set difference)."""
    columns = ", ".join(column_name(i) for i in range(arity))
    return (
        f"SELECT {columns} FROM {quote_identifier(left)} "
        f"EXCEPT SELECT {columns} FROM {quote_identifier(right)}"
    )


def copy_sql(target: str, source: str, arity: int) -> str:
    """INSERT copying every row of ``source`` into ``target``."""
    columns = ", ".join(column_name(i) for i in range(arity))
    return (
        f"INSERT INTO {quote_identifier(target)} ({columns}) "
        f"SELECT {columns} FROM {quote_identifier(source)}"
    )
