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
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..datalog.clauses import Query
from ..datalog.evalgraph import EvaluationNode, PredicateNode
from ..datalog.magic import QuerySeed
from ..datalog.pcg import Clique
from ..dbms.catalog import ExtensionalCatalog, fact_table_name
from ..dbms.engine import Database
from ..dbms.sqlgen import compile_rule_body
from ..errors import EvaluationError
from ..obs.trace import NULL_TRACER, NullTracer, Tracer
from .context import PHASE_RHS_EVAL, EvaluationContext, FastPathConfig
from .lfp import evaluate_clique_lfp_operator
from .lfp_cte import FusedProgram, evaluate_clique_lfp_cte
from .naive import LfpResult, evaluate_clique_naive
from .relalg import evaluate_nonrecursive
from .seminaive import evaluate_clique_seminaive


class LfpStrategy(enum.Enum):
    """Which LFP evaluation the run-time library uses for clique nodes."""

    NAIVE = "naive"
    SEMINAIVE = "seminaive"
    # Extension (paper conclusion #6): a generalized LFP operator inside the
    # DBMS, avoiding per-iteration temp tables and full set differences.
    LFP_OPERATOR = "lfp_operator"
    # Extension: the whole fixpoint as one recursive-CTE statement when the
    # clique qualifies (linear, single-predicate, negation-free); falls back
    # to semi-naive iteration otherwise.  When every clique qualifies, the
    # whole program runs as one statement (see ``QueryProgram.fused``).
    LFP_CTE = "lfp_cte"


#: The strategy every entry point uses unless the caller names one.
DEFAULT_STRATEGY = LfpStrategy.LFP_CTE


_CLIQUE_EVALUATORS = {
    LfpStrategy.NAIVE: evaluate_clique_naive,
    LfpStrategy.SEMINAIVE: evaluate_clique_seminaive,
    LfpStrategy.LFP_OPERATOR: evaluate_clique_lfp_operator,
    LfpStrategy.LFP_CTE: evaluate_clique_lfp_cte,
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
    # Clique label -> "lfp_cte" | "fallback: <reason>", filled in when the
    # recursive-CTE strategy was in play.
    strategy_by_clique: dict[str, str] = field(default_factory=dict)

    @property
    def total_iterations(self) -> int:
        """LFP iterations summed over cliques."""
        return sum(self.iterations_by_clique.values())


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
        fused: the whole plan as one statement (built once, at link time,
            for ``LFP_CTE`` plans whose every clique qualifies); an init
            field, so a plan-cache rebind carries it along.
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
    fused: FusedProgram | None = field(default=None, compare=False, repr=False)

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
        fastpath: FastPathConfig | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> ExecutionResult:
        """Run the program and return the answer tuples.

        A plan with a :attr:`fused` statement the backend can run is one
        statement; any other runs bottom-up, node by node.  ``fastpath``
        switches on the fast-path execution layer (iteration batching,
        scratch-table reuse, index advice) for the LFP loops; ``None`` keeps
        the paper-faithful slow path.  ``tracer`` threads the observability
        sink through to the evaluation strategies.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        table_of = {}
        for predicate in self.base_predicates:
            if not catalog.has_relation(predicate):
                raise EvaluationError(
                    f"base relation {predicate!r} is not loaded in the DBMS"
                )
            table_of[predicate] = fact_table_name(predicate)
        if self.fused is not None and self.fused.runs_on(database):
            return self._execute_fused(database, self.fused, tracer)
        seed_rows = self.seed_rows()
        context = EvaluationContext(
            database, table_of, self.types, seed_rows, fastpath, tracer
        )

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
                with tracer.span(
                    f"clique:{label}" if is_clique else f"node:{label}",
                    category="clique" if is_clique else "node",
                ):
                    started = time.perf_counter()
                    if is_clique:
                        lfp_results.append(evaluate_clique(context, node))
                    elif isinstance(node, PredicateNode):
                        evaluate_nonrecursive(context, node.predicate, node.rules)
                    else:  # pragma: no cover - the node union is closed
                        raise EvaluationError(f"unknown evaluation node {node!r}")
                    node_seconds[label] = time.perf_counter() - started
            with tracer.span("answer", category="answer"):
                rows = self._answer_rows(database, context.table_of)
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
        tracer: "Tracer | NullTracer",
    ) -> ExecutionResult:
        """The whole plan as one statement: nothing is materialised, so the
        result has no per-predicate sizes and no per-node seconds."""
        parameters = fused.parameters
        if self.query_seed is not None:
            parameters = fused.parameters_for(self.query_seed.row(self.query.goals[0]))
        with tracer.span(
            "fused", category="fused", cliques=len(fused.cliques)
        ), database.phase(PHASE_RHS_EVAL):
            rows = self._answer_rows(
                database, fused.tables.__getitem__, fused.with_clause, parameters
            )
        if tracer.enabled:
            tracer.metrics.counter("lfp.iterations").inc(len(fused.cliques))
            tracer.metrics.counter("lfp.cte_statements").inc()
        return ExecutionResult(
            rows,
            {label: 1 for label in fused.cliques},
            lfp_results=[LfpResult(1, {}) for __ in fused.cliques],
            strategy_by_clique={label: "lfp_cte" for label in fused.cliques},
        )

    def _answer_rows(
        self,
        database: Database,
        table_of: Callable[[str], str],
        with_clause: str = "",
        parameters: tuple = (),
    ) -> list[tuple]:
        """Join the query goals for the final answer.

        The SELECT reads ``table_of`` — materialised relations, or the CTEs
        of ``with_clause``, whose ``parameters`` precede its own.
        """
        goals = tuple(
            goal.with_predicate(self.goal_rewrites.get(goal.predicate, goal.predicate))
            for goal in self.query.goals
        )
        answer_clause = Query(goals, self.query.answer_variables).as_clause()
        select = compile_rule_body(answer_clause)
        sql = select.render([table_of(p) for p in select.table_slots])
        if with_clause:
            sql = f"{with_clause} {sql}"
        rows = database.execute(sql, parameters + select.parameters)
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
