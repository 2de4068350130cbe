"""The counting method (paper section 2.5, reference [9]) as a special operator.

Counting refines magic sets for *linear* rules of the canonical form

    p(X, Y) :- flat(X, Y).
    p(X, Y) :- up(X, U), p(U, V), down(V, Y).

(with the degenerate ancestor form ``p(X, Y) :- e(X, Z), p(Z, Y)`` treated
as ``up = e``, ``down = identity``).  Where the magic set only remembers
*which* nodes are relevant, counting remembers *how many* ``up`` steps away
each one is, so the answer phase applies ``down`` exactly the right number
of times — no joins against the full magic set.

Counting is unsafe on cyclic ``up`` graphs (the counts never converge); the
operator detects the cycle and raises, which is why the testbed keeps it as
a *special* operator in the sense of the paper's conclusion 8 rather than a
default rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.clauses import Clause, Program
from ..datalog.terms import Variable
from ..dbms.engine import Database
from ..dbms.schema import quote_identifier
from ..errors import EvaluationError


@dataclass(frozen=True)
class CountingForm:
    """A recognised counting-evaluable predicate definition."""

    predicate: str
    up: str
    flat: str
    down: str | None  # None for the ancestor (identity-down) form

    @property
    def is_ancestor_form(self) -> bool:
        """True for the degenerate linear form without a ``down`` relation."""
        return self.down is None


def recognize_counting_form(
    program: Program, predicate: str
) -> CountingForm | None:
    """Match ``predicate``'s definition against the canonical counting forms.

    Returns ``None`` when the definition is not exactly one exit rule
    ``p(X, Y) :- flat(X, Y).`` plus one recursive rule of the
    same-generation or ancestor shape.
    """
    rules = [c for c in program.defining(predicate) if c.is_rule]
    if len(rules) != 2:
        return None
    exits = [c for c in rules if predicate not in c.body_predicates]
    recursives = [c for c in rules if predicate in c.body_predicates]
    if len(exits) != 1 or len(recursives) != 1:
        return None

    flat = _match_exit(exits[0])
    if flat is None:
        return None
    return _match_recursive(recursives[0], predicate, flat)


def _match_exit(clause: Clause) -> str | None:
    """``p(X, Y) :- flat(X, Y).`` with distinct head variables."""
    head = clause.head
    if len(clause.body) != 1 or head.arity != 2:
        return None
    x, y = head.terms
    if not isinstance(x, Variable) or not isinstance(y, Variable) or x == y:
        return None
    body = clause.body[0]
    if body.negated or body.terms != (x, y):
        return None
    return body.predicate


def _match_recursive(
    clause: Clause, predicate: str, flat: str
) -> CountingForm | None:
    head = clause.head
    if head.arity != 2:
        return None
    x, y = head.terms
    if not isinstance(x, Variable) or not isinstance(y, Variable) or x == y:
        return None
    body = [a for a in clause.body if not a.negated]
    if len(body) != len(clause.body):
        return None

    if len(body) == 2:
        # p(X, Y) :- up(X, Z), p(Z, Y).  -- ancestor form
        up, recursive = body
        if recursive.predicate != predicate or up.predicate == predicate:
            return None
        if up.terms[0] != x or recursive.terms[1] != y:
            return None
        z = up.terms[1]
        if not isinstance(z, Variable) or recursive.terms[0] != z:
            return None
        return CountingForm(predicate, up.predicate, flat, None)

    if len(body) == 3:
        # p(X, Y) :- up(X, U), p(U, V), down(V, Y).
        up, recursive, down = body
        if recursive.predicate != predicate:
            return None
        if up.predicate == predicate or down.predicate == predicate:
            return None
        if up.terms[0] != x or down.terms[1] != y:
            return None
        u, v = recursive.terms
        if up.terms[1] != u or down.terms[0] != v:
            return None
        if not isinstance(u, Variable) or not isinstance(v, Variable):
            return None
        return CountingForm(predicate, up.predicate, flat, down.predicate)
    return None


@dataclass(frozen=True)
class CountingResult:
    """Answers plus the phase statistics of one counting evaluation."""

    rows: set[tuple]
    up_iterations: int
    down_iterations: int


def evaluate_counting(
    database: Database,
    form: CountingForm,
    table_of: dict[str, str],
    constant: object,
) -> CountingResult:
    """Evaluate ``form.predicate(constant, Y)`` by the counting method.

    Args:
        database: the DBMS connection.
        form: a recognised counting form.
        table_of: physical table per base predicate (``up``/``flat``/``down``).
        constant: the bound first argument of the query.

    The up and down phases are spans on ``database``.

    Raises:
        EvaluationError: when the ``up`` relation is cyclic below the
            constant (counting does not terminate there — the documented
            limitation of the method).
    """
    up_table = quote_identifier(table_of[form.up])
    flat_table = quote_identifier(table_of[form.flat])

    counts = "cnt_counting"
    answers = "ans_counting"
    for name in (counts, answers):
        database.drop_relation(name)
    database.execute(
        f"CREATE TEMPORARY TABLE {counts} "
        "(c0 INTEGER, c1, PRIMARY KEY (c0, c1)) WITHOUT ROWID"
    )
    database.execute(
        f"CREATE TEMPORARY TABLE {answers} "
        "(c0 INTEGER, c1, PRIMARY KEY (c0, c1)) WITHOUT ROWID"
    )

    # Phase 1 — count up: level i holds the nodes i `up`-steps from the
    # constant.  A level exceeding the number of distinct nodes means a cycle.
    with database.span("count_up", "counting") as up_span:
        database.execute(
            f"INSERT INTO {counts} VALUES (0, ?)", (constant,)
        )
        node_bound = int(
            database.execute(
                f"SELECT COUNT(*) FROM "
                f"(SELECT c0 FROM {up_table} UNION SELECT c1 FROM {up_table})"
            )[0][0]
        ) + 1
        level = 0
        while True:
            database.execute(
                f"INSERT OR IGNORE INTO {counts} "
                f"SELECT ? + 1, u.c1 FROM {counts} AS c, {up_table} AS u "
                f"WHERE c.c0 = ? AND u.c0 = c.c1",
                (level, level),
            )
            produced = int(
                database.execute(
                    f"SELECT COUNT(*) FROM {counts} WHERE c0 = ?", (level + 1,)
                )[0][0]
            )
            if not produced:
                break
            level += 1
            if level > node_bound:
                for name in (counts, answers):
                    database.drop_relation(name)
                raise EvaluationError(
                    f"counting does not terminate: relation {form.up!r} is "
                    "cyclic below the query constant"
                )
        max_level = level
        up_span.set("levels", max_level)

    # Phase 2 — flat across, then count down.
    down_iterations = 0
    with database.span("count_down", "counting") as down_span:
        if form.down is None:
            # Ancestor form (up == flat, down == identity): the answers are
            # exactly the nodes counted at level >= 1.
            database.execute(
                f"INSERT OR IGNORE INTO {answers} "
                f"SELECT 0, c1 FROM {counts} WHERE c0 > 0"
            )
        else:
            database.execute(
                f"INSERT OR IGNORE INTO {answers} "
                f"SELECT c.c0, f.c1 FROM {counts} AS c, {flat_table} AS f "
                f"WHERE f.c0 = c.c1"
            )
            down_table = quote_identifier(table_of[form.down])
            for current in range(max_level, 0, -1):
                down_iterations += 1
                database.execute(
                    f"INSERT OR IGNORE INTO {answers} "
                    f"SELECT ? - 1, d.c1 FROM {answers} AS a, {down_table} AS d "
                    f"WHERE a.c0 = ? AND d.c0 = a.c1",
                    (current, current),
                )
        down_span.set("iterations", down_iterations)

    rows = {
        (value,)
        for (value,) in database.execute(
            f"SELECT DISTINCT c1 FROM {answers} WHERE c0 = 0"
        )
    }
    for name in (counts, answers):
        database.drop_relation(name)
    return CountingResult(rows, max_level, down_iterations)


def counting_applies(program: Program, predicate: str) -> bool:
    """Whether :func:`evaluate_counting` can answer queries on ``predicate``."""
    return recognize_counting_form(program, predicate) is not None
