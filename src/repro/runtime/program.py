"""Query program execution: interpreting the evaluation order list.

The Code Generator emits a :class:`QueryProgram` — the Python analogue of the
paper's C program fragment, holding "information similar to the nodes of the
evaluation order graph" (section 3.2.6): per node, the predicate names,
schema information, and the SQL query per defining rule, with clique nodes
distinguishing exit from recursive rules.  Executing the program walks the
evaluation order list, materialising each node bottom-up, then reads the
answer relation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

from ..datalog.clauses import Query
from ..datalog.evalgraph import EvaluationNode, PredicateNode
from ..datalog.magic import QuerySeed
from ..datalog.pcg import Clique
from ..datalog.terms import Atom, Constant, Variable
from ..dbms.catalog import ExtensionalCatalog, fact_table_name
from ..dbms.engine import Database
from ..dbms.sqlgen import compile_rule_body
from ..errors import EvaluationError
from .context import PHASE_RHS_EVAL, EvaluationContext, derived_table_name
from .lfp_cte import FusedProgram, cte_eligibility
from .naive import LfpResult, evaluate_clique_naive
from .relalg import evaluate_nonrecursive
from .seminaive import evaluate_clique_seminaive


class LfpStrategy(enum.Enum):
    """Which LFP evaluation the run-time library uses for clique nodes."""

    NAIVE = "naive"
    SEMINAIVE = "seminaive"
    # Extension (paper conclusion #6, the LFP operator inside the DBMS): the
    # whole plan as one recursive-CTE statement when every clique qualifies
    # (linear, negation-free; see ``QueryProgram.fused``), the semi-naive
    # loop otherwise.
    LFP_CTE = "lfp_cte"


#: The strategy every entry point uses unless the caller names one.
DEFAULT_STRATEGY = LfpStrategy.LFP_CTE


def _evaluate_unfused(context: EvaluationContext, clique: Clique) -> LfpResult:
    """An ``LFP_CTE`` clique of a plan that runs node by node: the
    semi-naive loop, with the reason the plan did not fuse recorded."""
    seeds = sum(len(context.seed_rows.get(p, ())) for p in clique.predicates)
    check = cte_eligibility(clique, context.database, seeds)
    reason = "plan does not fuse" if check else check.reason
    label = "+".join(sorted(clique.predicates))
    context.counters.strategy_by_clique[label] = f"fallback: {reason}"
    return evaluate_clique_seminaive(context, clique)


_CLIQUE_EVALUATORS = {
    LfpStrategy.NAIVE: evaluate_clique_naive,
    LfpStrategy.SEMINAIVE: evaluate_clique_seminaive,
    LfpStrategy.LFP_CTE: _evaluate_unfused,
}


@dataclass
class ExecutionResult:
    """Answer tuples plus the logical counters of one execution."""

    rows: list[tuple]
    iterations_by_clique: dict[str, int] = field(default_factory=dict)
    tuples_by_predicate: dict[str, int] = field(default_factory=dict)
    lfp_results: list[LfpResult] = field(default_factory=list)
    # Wall seconds per evaluation node, keyed by the node's predicate set —
    # Fig 14 reads the magic-rules vs modified-rules LFP times from here.
    node_seconds: dict[str, float] = field(default_factory=dict)
    # Clique label -> "lfp_cte" | "fallback: <reason>", filled in for
    # ``LFP_CTE`` plans.
    strategy_by_clique: dict[str, str] = field(default_factory=dict)

    @property
    def total_iterations(self) -> int:
        """LFP iterations summed over cliques."""
        return sum(self.iterations_by_clique.values())


@dataclass(frozen=True)
class AnswerSelect:
    """A plan's final answer SELECT, compiled once per query form.

    Its text depends on the form only (the goals' predicates, negations and
    variable pattern); each query supplies just the constants.

    Attributes:
        sql: the SELECT over the names the plan's relations carry, in the
            fused statement's CTEs as in the node-by-node run: ``e_<p>``
            for a base predicate, ``d_<p>`` for a derived one.
        slots: per ``?`` parameter, in textual order, the (goal, argument)
            position of the query constant it takes.
    """

    sql: str
    slots: tuple[tuple[int, int], ...]

    def parameters(self, query: Query) -> tuple:
        """The parameters of ``query``, a query of the plan's form."""
        return tuple(query.goals[goal].terms[argument].value for goal, argument in self.slots)


@dataclass(frozen=True)
class QueryProgram:
    """A compiled, executable query plan.

    Attributes:
        query: the original query (its goals form the final SELECT).
        order: the evaluation order list over (possibly rewritten) rules.
        types: column types of every predicate the program touches.
        base_predicates: predicates read from the extensional database.
        strategy: LFP strategy for clique nodes.
        optimized: whether the rules were magic-sets rewritten.
        goal_rewrites: maps each original query-goal predicate to the
            (possibly adorned) predicate whose relation answers it.
        seed_facts: ground tuples pre-loaded into derived relations before
            evaluation — the magic facts a rewrite's rules produce.
        query_seed: for a rewritten plan, which goal arguments seed which
            magic predicate; the row is read from :attr:`query` at every
            execution (:meth:`seed_rows`), so a plan-cache rebind is all it
            takes to run the plan for other constants.
        factored: the goal relation holds a factored rewrite's exit rules
            over the magic set, one row per magic tuple: the answer reads
            its free positions, the seed's goal positions matching any row.
        fused: the whole plan as one statement (built once, at link time,
            for ``LFP_CTE`` plans whose every clique qualifies); an init
            field, so a plan-cache rebind carries it along.
        answer: the answer SELECT, built with the program unless given (a
            rebind carries it along, as it does :attr:`fused`).
    """

    query: Query
    order: tuple[EvaluationNode, ...]
    types: Mapping[str, tuple[str, ...]]
    base_predicates: frozenset[str]
    strategy: LfpStrategy = DEFAULT_STRATEGY
    optimized: bool = False
    goal_rewrites: Mapping[str, str] = field(default_factory=dict)
    seed_facts: Mapping[str, tuple[tuple, ...]] = field(default_factory=dict)
    query_seed: QuerySeed | None = None
    factored: bool = False
    fused: FusedProgram | None = field(default=None, compare=False, repr=False)
    answer: AnswerSelect | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.answer is None:
            object.__setattr__(self, "answer", self._compile_answer())

    def _compile_answer(self) -> AnswerSelect:
        """Join the query goals for the final answer.

        Each query constant is compiled as a stand-in numbering its
        position, so the compiled parameters name the slots to fill.  A
        factored plan's goal relation holds one row per magic tuple: its
        seed positions match any row.
        """
        slots: list[tuple[int, int]] = []
        goals = []
        for index, goal in enumerate(self.query.goals):
            terms = list(goal.terms)
            for position, term in enumerate(terms):
                if isinstance(term, Constant):
                    terms[position] = Constant(len(slots))
                    slots.append((index, position))
            if self.factored and index == 0:
                for position in self.query_seed.positions:
                    terms[position] = Variable(f"#{position}")
            predicate = self.goal_rewrites.get(goal.predicate, goal.predicate)
            goals.append(Atom(predicate, tuple(terms), goal.negated))
        answer_clause = Query(tuple(goals), self.query.answer_variables).as_clause()
        select = compile_rule_body(answer_clause)
        sql = select.render(
            [
                fact_table_name(p) if p in self.base_predicates else derived_table_name(p)
                for p in select.table_slots
            ]
        )
        return AnswerSelect(sql, tuple(slots[i] for i in select.parameters))

    def seed_rows(self) -> Mapping[str, tuple[tuple, ...]]:
        """The seed rows for this program's query: :attr:`seed_facts` plus
        the query's own seed row, each row once."""
        if self.query_seed is None:
            return self.seed_facts
        predicate = self.query_seed.predicate
        row = self.query_seed.row(self.query.goals[0])
        static = self.seed_facts.get(predicate, ())
        return {
            **self.seed_facts,
            predicate: (row,) + tuple(r for r in static if r != row),
        }

    def execute(
        self,
        database: Database,
        catalog: ExtensionalCatalog,
        stamp: Hashable = None,
    ) -> ExecutionResult:
        """Run the program and return the answer tuples.

        A plan with a :attr:`fused` statement the backend can run is one
        statement; any other runs bottom-up, node by node, each node one
        span whose duration is its ``node_seconds`` entry.  ``stamp`` is the
        dictionary state the caller has just read, if any: base relations
        the catalog confirmed under it are not probed again.
        """
        table_of = {}
        for predicate in self.base_predicates:
            if not catalog.has_relation(predicate, stamp):
                raise EvaluationError(
                    f"base relation {predicate!r} is not loaded in the DBMS"
                )
            table_of[predicate] = fact_table_name(predicate)
        if self.fused is not None and self.fused.runs_on(database):
            return self._execute_fused(database, self.fused)
        seed_rows = self.seed_rows()
        context = EvaluationContext(database, table_of, self.types, seed_rows)

        evaluate_clique = _CLIQUE_EVALUATORS[self.strategy]
        lfp_results: list[LfpResult] = []
        defined = program_predicates(self.order)
        try:
            # Seed-only predicates (e.g. a magic predicate with no deriving
            # rules) never appear as an evaluation node; materialise them here
            # so rule bodies referencing them find a relation.
            for predicate in sorted(set(seed_rows) - defined):
                context.materialise(predicate)
                context.insert_seed_rows(predicate)
            node_seconds: dict[str, float] = {}
            for node in self.order:
                label = "+".join(sorted(node.predicates))
                is_clique = isinstance(node, Clique)
                with database.span(
                    f"clique:{label}" if is_clique else f"node:{label}",
                    "clique" if is_clique else "node",
                ) as span:
                    if is_clique:
                        lfp_results.append(evaluate_clique(context, node))
                    elif isinstance(node, PredicateNode):
                        evaluate_nonrecursive(context, node.predicate, node.rules)
                    else:  # pragma: no cover - the node union is closed
                        raise EvaluationError(f"unknown evaluation node {node!r}")
                node_seconds[label] = span.duration
            with database.span("answer", "answer"):
                rows = self._answer_rows(database, self.answer.sql)
        finally:
            context.cleanup()
        return ExecutionResult(
            rows,
            dict(context.counters.iterations_by_clique),
            dict(context.counters.tuples_by_predicate),
            lfp_results,
            node_seconds,
            dict(context.counters.strategy_by_clique),
        )

    def _execute_fused(
        self,
        database: Database,
        fused: FusedProgram,
    ) -> ExecutionResult:
        """The whole plan as one statement: nothing is materialised, so the
        result has no per-predicate sizes and no per-node seconds."""
        parameters = fused.parameters
        if self.query_seed is not None:
            parameters = fused.parameters_for(self.query_seed.row(self.query.goals[0]))
        with database.span(
            "fused", "fused", PHASE_RHS_EVAL, cliques=len(fused.cliques)
        ):
            sql = self.answer.sql
            if fused.with_clause:
                sql = f"{fused.with_clause} {sql}"
            rows = self._answer_rows(database, sql, parameters)
        tracer = database.tracer
        if tracer is not None:
            tracer.metrics.counter("lfp.iterations").inc(len(fused.cliques))
            tracer.metrics.counter("lfp.cte_statements").inc()
        return ExecutionResult(
            rows,
            {label: 1 for label in fused.cliques},
            lfp_results=[LfpResult(1, {}) for __ in fused.cliques],
            strategy_by_clique={label: "lfp_cte" for label in fused.cliques},
        )

    def _answer_rows(
        self, database: Database, sql: str, parameters: tuple = ()
    ) -> list[tuple]:
        """Run the answer statement ``sql``: the answer SELECT, after any
        ``WITH`` clause whose ``parameters`` precede the query's own."""
        rows = database.execute(sql, parameters + self.answer.parameters(self.query))
        if not self.query.answer_variables:
            # Boolean (fully ground) query: true iff any witness row exists.
            return [()] if rows else []
        return rows


def program_predicates(order: Sequence[EvaluationNode]) -> set[str]:
    """All predicates defined by the program's evaluation nodes."""
    defined: set[str] = set()
    for node in order:
        defined.update(node.predicates)
    return defined
