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
    clause: Clause,
    semijoin: frozenset[str] = frozenset(),
    tagged: frozenset[str] = frozenset(),
    cross_join: bool = False,
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
    * A positive atom over a ``tagged`` predicate reads a tagged union of
      several predicates (a mutually recursive clique's recursive CTE): the
      filter ``tN.tag = '<predicate>'`` keeps its own rows.
    * With ``cross_join`` the FROM items are joined with ``CROSS JOIN``
      instead of commas: SQLite then nests the loops in body order (the
      left operand outermost); other engines read it as an inner join.
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

    where_const: list[str] = []
    params_const: list[Any] = []
    for index, atom in enumerate(positive):
        alias = f"t{index}"
        placeholder = f"{{{len(placeholders)}}}"
        placeholders.append(atom.predicate)
        from_items.append(f"{placeholder} AS {alias}")
        if atom.predicate in tagged:
            where_const.append(f"{alias}.tag = {string_literal(atom.predicate)}")
        for position, term in enumerate(atom.terms):
            column = f"{alias}.{column_name(position)}"
            if isinstance(term, Constant):
                where_const.append(f"{column} = ?")
                params_const.append(term.value)
            else:
                first = location.get(term)
                if first is None:
                    location[term] = column
                else:
                    where.append(f"{column} = {first}")

    # Join equalities first, then constant filters, for readable SQL; the
    # parameter list must follow textual ? order, so constants come last.
    where.extend(where_const)
    parameters.extend(params_const)

    for atom in negated:
        subquery, sub_params = _not_exists(
            atom, location, len(placeholders)
        )
        placeholders.append(atom.predicate)
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
    sql += " FROM " + (" CROSS JOIN " if cross_join else ", ").join(from_items)
    if where:
        sql += " WHERE " + " AND ".join(where)
    return CompiledSelect(sql, all_parameters, tuple(placeholders), len(positive))


def string_literal(value: str) -> str:
    """``value`` as an SQL string literal, doubling embedded quotes."""
    escaped = value.replace("'", "''")
    return f"'{escaped}'"


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


def delete_members_sql(
    target: str, source: str, arity: int, members: bool = True
) -> str:
    """DELETE the rows of ``target`` that are (or, without ``members``, are
    not) rows of ``source``.

    The row-value ``IN`` probes an index of ``source`` over all its columns
    (a materialized view's key index); lacking one, the DBMS indexes
    ``source`` whole first, so point it at small relations only.
    """
    columns = ", ".join(column_name(i) for i in range(arity))
    membership = "IN" if members else "NOT IN"
    return (
        f"DELETE FROM {quote_identifier(target)} WHERE ({columns}) "
        f"{membership} (SELECT {columns} FROM {quote_identifier(source)})"
    )


def delete_probed_sql(
    target: str, source: str, arity: int, members: bool = True
) -> str:
    """:func:`delete_members_sql` as one correlated ``EXISTS`` per row.

    Each ``target`` row probes ``source`` through any single-column index
    (a base relation's ``idx_e_<p>_<i>``) instead of indexing it whole.
    """
    outer = quote_identifier(target)
    match = " AND ".join(
        f"s.{column_name(i)} = {outer}.{column_name(i)}" for i in range(arity)
    )
    exists = "EXISTS" if members else "NOT EXISTS"
    return (
        f"DELETE FROM {outer} WHERE {exists} "
        f"(SELECT 1 FROM {quote_identifier(source)} AS s WHERE {match})"
    )


def copy_sql(target: str, source: str, arity: int) -> str:
    """INSERT copying every row of ``source`` into ``target``."""
    columns = ", ".join(column_name(i) for i in range(arity))
    return (
        f"INSERT INTO {quote_identifier(target)} ({columns}) "
        f"SELECT {columns} FROM {quote_identifier(source)}"
    )
