"""The Testbed facade: the public user API (paper section 3.1's "typical
session").

A session owns one DBMS (SQLite database), the extensional catalog, the
Stored D/KB, and a Workspace D/KB.  The user creates rules and facts in the
workspace, issues queries against workspace + stored rules, and — when
satisfied — updates the Stored D/KB with the workspace rules.

Facts always describe *base* predicates: they are loaded straight into the
extensional database.  A predicate must be purely extensional or purely
intensional (the paper's section 2.1 convention); ``define`` applies the
standard normalisation automatically when a text program mixes them.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from ..analysis import AnalysisConfig, DiagnosticReport, analyze
from ..datalog.clauses import Clause, Program, Query
from ..datalog.parser import parse_program, parse_query
from ..datalog.terms import Atom, Variable
from ..dbms.catalog import (
    DICTIONARY_STAMP_SQL,
    ExtensionalCatalog,
    fact_table_name,
)
from ..dbms.engine import Database
from ..dbms.schema import RelationSchema, quote_identifier
from ..dbms.sqlgen import compile_rule_body
from ..errors import CatalogError, EvaluationError, SemanticError
from ..maintenance.delta import propagate_inserts
from ..maintenance.dred import DeleteMaintenance
from ..maintenance.plan import (
    MaintenancePlan,
    MaintenanceResult,
    build_plan,
    merge_plans,
)
from ..maintenance.refresh import full_refresh
from ..maintenance.registry import MaterializedViewRegistry, view_table_name
from ..obs.trace import NULL_TRACER, NullTracer, Span, Tracer
from ..runtime.context import FastPathConfig
from ..runtime.program import DEFAULT_STRATEGY, ExecutionResult, LfpStrategy
from .compiler import CompilationResult, QueryCompiler
from .config import TestbedConfig
from .constraints import assert_consistent, check_consistency
from .policy import DEFAULT_OPTIMIZE
from .precompile import PrecompiledQueryCache, cache_key
from .stored import RULE_STAMP_SQL, StoredDKB
from .update import UpdateResult, update_stored_dkb
from .workspace import WorkspaceDKB


# Statistics phase attributed to the view-answer fast path of ``query()``.
VIEW_ANSWER_PHASE = "view_answer"


class DkbState(NamedTuple):
    """What a session's cached plans are valid for (``Testbed._dkb_state``)."""

    workspace: int  # WorkspaceDKB.generation
    stored_rules: int  # MAX(ruleid) of rulesource
    dictionary: tuple  # (ExtensionalCatalog.generation, COUNT(*), MAX(rowid))


_DKB_STAMP_SQL = f"SELECT {RULE_STAMP_SQL}, {DICTIONARY_STAMP_SQL}"


@dataclass
class QueryResult:
    """The full outcome of one D/KB query: rows plus both measurement sets.

    ``compilation`` is ``None`` when the query was answered directly from
    materialized views (``answered_from_view``) — no compilation happened.
    """

    rows: list[tuple]
    compilation: CompilationResult | None
    execution: ExecutionResult
    execution_seconds: float
    answered_from_view: bool = False

    @property
    def timings(self) -> dict[str, float]:
        """Phase -> seconds, the common result-object timing contract.

        The compilation components (empty for view-answered queries, which
        compile nothing) plus one ``execute`` entry, so
        ``sum(result.timings.values()) == result.total_seconds`` uniformly
        across query, update, and maintenance results.
        """
        mapping: dict[str, float] = (
            {} if self.compilation is None
            else dict(self.compilation.timings.components())
        )
        mapping["execute"] = self.execution_seconds
        return mapping

    @property
    def total_seconds(self) -> float:
        """Compilation plus execution."""
        return sum(self.timings.values())

    @property
    def compile_seconds(self) -> float:
        """The paper's ``t_c`` (zero for view-answered queries).

        A thin delegate over :attr:`timings` — everything except the
        ``execute`` phase.
        """
        return self.total_seconds - self.execution_seconds


#: ``Testbed(...)`` keywords accepted for backward compatibility; each maps
#: onto the :class:`TestbedConfig` field of the same name.
_LEGACY_KEYWORDS = (
    "path",
    "compiled_rule_storage",
    "fastpath",
    "statement_cache_size",
    "maintenance_policy",
)


class Testbed:
    """A D/KBMS testbed session.

    Args:
        config: a :class:`TestbedConfig` carrying every session knob, or a
            bare database path string (shorthand for
            ``TestbedConfig(path=...)``), or ``None`` for the defaults.
        **legacy: the pre-config keywords (``path``,
            ``compiled_rule_storage``, ``fastpath``,
            ``statement_cache_size``, ``maintenance_policy``) — still
            accepted, but deprecated; each emits a
            :class:`DeprecationWarning` and maps onto the
            :class:`TestbedConfig` field of the same name.  Mixing them with
            an explicit :class:`TestbedConfig` is an error.
    """

    # Despite the Test* name (from the paper), this is not a pytest case.
    __test__ = False

    def __init__(
        self,
        config: "TestbedConfig | str | None" = None,
        **legacy: object,
    ):
        if isinstance(config, TestbedConfig):
            if legacy:
                raise TypeError(
                    "pass either a TestbedConfig or legacy keywords, not "
                    "both: " + ", ".join(sorted(legacy))
                )
        else:
            unknown = sorted(set(legacy) - set(_LEGACY_KEYWORDS))
            if unknown:
                raise TypeError(
                    "unknown Testbed keyword(s): " + ", ".join(unknown)
                )
            if isinstance(config, str):
                legacy.setdefault("path", config)
            if set(legacy) - {"path"} or (
                "path" in legacy and not isinstance(config, str)
            ):
                warnings.warn(
                    "Testbed keyword configuration is deprecated; pass a "
                    "TestbedConfig instead: Testbed(TestbedConfig(...))",
                    DeprecationWarning,
                    stacklevel=2,
                )
            config = TestbedConfig(**legacy)  # type: ignore[arg-type]
        self.config = config
        self.database = Database(
            config.path,
            statement_cache_size=config.statement_cache_size,
            options=config.connection,
            backend=config.backend,
        )
        self.catalog = ExtensionalCatalog(self.database)
        self.stored = StoredDKB(
            self.database, compiled_storage=config.compiled_rule_storage
        )
        self.workspace = WorkspaceDKB()
        self._compiler = QueryCompiler(self.workspace, self.stored, self.catalog)
        self.precompiled = PrecompiledQueryCache()
        self.fastpath = config.fastpath
        self.views = MaterializedViewRegistry(self.database)
        self.maintenance_policy = config.maintenance_policy
        self.maintenance_log: list[MaintenanceResult] = []
        self._view_plans: dict[str, MaintenancePlan] = {}
        self._tracer: Tracer | None = None
        self.last_query_span: Span | None = None
        if config.trace:
            self.enable_tracing()

    def close(self) -> None:
        """Close the DBMS connection."""
        self.database.close()

    def __enter__(self) -> "Testbed":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- observability -----------------------------------------------------------

    @property
    def tracer(self) -> Tracer | None:
        """The active observability sink (``None`` while tracing is off)."""
        return self._tracer

    def enable_tracing(self, capture_plans: bool = True) -> Tracer:
        """Switch structured tracing on; returns the (idempotent) tracer.

        While enabled, every query/update/maintenance operation records a
        span tree, the metrics registry accumulates counters and
        histograms, and (with ``capture_plans``) each distinct compiled
        SELECT gets an ``EXPLAIN QUERY PLAN`` snapshot.
        """
        if self._tracer is None:
            self._tracer = Tracer(capture_plans=capture_plans)
            self.database.set_tracer(self._tracer)
        return self._tracer

    def disable_tracing(self) -> Tracer | None:
        """Switch tracing off; returns the detached tracer (if any)."""
        tracer, self._tracer = self._tracer, None
        self.database.set_tracer(None)
        return tracer

    @contextmanager
    def trace(self, capture_plans: bool = True) -> Iterator[Tracer]:
        """Trace the operations inside the ``with`` block.

        Installs a fresh :class:`Tracer` (or keeps the already-enabled one)
        for the duration of the block and restores the previous tracing
        state afterwards::

            with tb.trace() as tracer:
                tb.query("?- ancestor(X, \\"john\\").")
            print(render_span_tree(tracer))
        """
        previous = self._tracer
        tracer = previous if previous is not None else Tracer(
            capture_plans=capture_plans
        )
        self._tracer = tracer
        self.database.set_tracer(tracer)
        try:
            yield tracer
        finally:
            self._tracer = previous
            self.database.set_tracer(previous)

    def _active_tracer(self) -> "Tracer | NullTracer":
        return self._tracer if self._tracer is not None else NULL_TRACER

    # -- building the D/KB ----------------------------------------------------

    def define(self, source: str) -> list[Clause]:
        """Add rules and facts from concrete syntax.

        Rules go to the workspace; facts go to the extensional database,
        creating base relations on first use (column types inferred from the
        first fact).  Mixed predicates are normalised first.

        Returns:
            The clauses added (after normalisation).
        """
        program = parse_program(source).normalized()
        generation = self.workspace.generation
        added: list[Clause] = []
        for clause in program:
            if clause.is_fact:
                self._load_fact(clause)
                added.append(clause)
            elif self.workspace.add_clause(clause):
                added.append(clause)
                # A new rule can change what the predicate (and everything
                # above it) derives; views built over it go stale right
                # away, so facts later in this same program are not
                # incrementally propagated under an outdated plan.
                self._invalidate_views_for({clause.head_predicate})
        # New rules can change compiled plans that depend on their head
        # predicates; the precompiled-query cache must drop those entries.
        new_rule_heads = {c.head_predicate for c in added if c.is_rule}
        self.precompiled.invalidate_for(new_rule_heads)
        self._plans_follow(generation)
        return added

    def _load_fact(self, clause: Clause) -> None:
        predicate = clause.head_predicate
        row = clause.head.ground_tuple()
        if not self.catalog.has_relation(predicate):
            types = tuple(
                "INTEGER" if isinstance(value, int) else "TEXT" for value in row
            )
            self.catalog.create_relation(predicate, types)
        # Route through load_facts so materialized views stay maintained.
        self.load_facts(predicate, [row])

    def define_base_relation(
        self, predicate: str, types: Sequence[str], indexed: bool = True
    ) -> None:
        """Create an (empty) base relation with explicit column types."""
        self.catalog.create_relation(predicate, types, indexed=indexed)

    def load_facts(self, predicate: str, rows: Iterable[Sequence]) -> int:
        """Bulk-load tuples into a base relation; returns the count loaded.

        Fresh materialized views whose rules read ``predicate`` are
        maintained incrementally (delta propagation), or fully refreshed
        when their rules contain negation.

        Raises:
            CatalogError: when the relation does not exist.
        """
        if not self.catalog.has_relation(predicate):
            raise CatalogError(
                f"base relation {predicate!r} does not exist; call "
                "define_base_relation first"
            )
        rows = [tuple(row) for row in rows]
        self._check_partition_ownership(predicate, rows)
        affected = self.views.fresh_views_on_base(predicate)
        if not affected:
            return self.catalog.insert_facts(predicate, rows)
        return self._maintain_inserts(predicate, rows, affected)

    def _check_partition_ownership(
        self, predicate: str, rows: Sequence[tuple]
    ) -> None:
        """Reject rows a sharded session's hash partition does not own."""
        spec = self.config.partition
        shard = self.config.shard_index
        if spec is None or shard is None or not spec.is_partitioned(predicate):
            return
        for row in rows:
            owner = spec.shard_of_row(predicate, row)
            if owner != shard:
                raise EvaluationError(
                    f"row {row!r} of partitioned relation {predicate!r} "
                    f"belongs to shard {owner}, not this shard ({shard})"
                )

    def delete_facts(self, predicate: str, rows: Iterable[Sequence]) -> int:
        """Delete tuples from a base relation; returns the count removed.

        Every stored copy of each listed tuple is removed.  Fresh
        materialized views whose rules read ``predicate`` are maintained by
        DRed (delete-and-rederive) when the cost heuristic
        (``maintenance_policy``) expects it to win, and by a full refresh
        otherwise.

        Raises:
            CatalogError: when the relation does not exist.
        """
        if not self.catalog.has_relation(predicate):
            raise CatalogError(
                f"base relation {predicate!r} does not exist"
            )
        rows = [tuple(row) for row in rows]
        affected = self.views.fresh_views_on_base(predicate)
        if not affected:
            return self.catalog.delete_rows(predicate, rows)
        return self._maintain_deletes(predicate, rows, affected)

    # -- materialized views -----------------------------------------------------

    def materialize(self, predicate: str) -> int:
        """Materialize a derived predicate as a persistent DBMS relation.

        The predicate's relevant rules are compiled (exactly as a query
        over it would be), its derived support set is registered in the
        materialization dictionary, and the relations are populated by a
        full semi-naive computation.  Afterwards the view is kept correct
        under :meth:`load_facts` / :meth:`delete_facts` incrementally, and
        queries over it are answered by a plain SELECT.

        Returns the number of tuples materialized for ``predicate``.

        Raises:
            SemanticError: when ``predicate`` is a base relation.
            CatalogError: when ``predicate`` is already materialized.
        """
        if self.catalog.has_relation(predicate):
            raise SemanticError(
                f"{predicate!r} is a base relation; only derived "
                "predicates can be materialized"
            )
        if self.views.is_view(predicate):
            raise CatalogError(
                f"{predicate!r} is already materialized; use refresh"
            )
        plan = self._build_plan(predicate)
        self._register_plan(predicate, plan)
        started = time.perf_counter()
        total = full_refresh(
            self.database,
            plan,
            self._tables_of(plan),
            self.fastpath,
            tracer=self._tracer,
        )
        self.views.mark_group_fresh(predicate)
        self.database.commit()
        self.maintenance_log.append(
            MaintenanceResult(
                (predicate,),
                "materialize",
                "refresh",
                seconds=time.perf_counter() - started,
                tuples_added=total,
            )
        )
        return self.views.tuple_count(predicate)

    def refresh(self, predicate: str | None = None) -> list[MaintenanceResult]:
        """Recompute materialized views from scratch.

        With ``predicate`` given, refreshes that one view; otherwise every
        registered view.  The view's plan is recompiled first, so rule-base
        changes since materialization (which mark views stale) are picked
        up.

        Raises:
            CatalogError: when ``predicate`` is not a materialized view.
        """
        if predicate is not None:
            if not self.views.is_view(predicate):
                raise CatalogError(
                    f"{predicate!r} is not a materialized view"
                )
            targets = [predicate]
        else:
            targets = [v.predicate for v in self.views.views()]
        results: list[MaintenanceResult] = []
        for view in targets:
            plan = self._build_plan(view)
            self._register_plan(view, plan)
            started = time.perf_counter()
            total = full_refresh(
                self.database,
                plan,
                self._tables_of(plan),
                self.fastpath,
                tracer=self._tracer,
            )
            self.views.mark_group_fresh(view)
            self.views.bump_epoch([view])
            result = MaintenanceResult(
                (view,),
                "refresh",
                "refresh",
                seconds=time.perf_counter() - started,
                tuples_added=total,
            )
            self.maintenance_log.append(result)
            results.append(result)
        self.database.commit()
        return results

    def drop_view(self, predicate: str) -> None:
        """Drop a materialized view (support relations other views share
        are kept).

        Raises:
            CatalogError: when ``predicate`` is not a materialized view.
        """
        self.views.unregister_view(predicate)
        self._view_plans.pop(predicate, None)

    def _build_plan(self, predicate: str) -> MaintenancePlan:
        """Compile the all-free query over ``predicate`` into a plan."""
        self._check_workspace_consistency()
        arity = self.workspace.program.arity_of(predicate)
        if arity is None:
            types = self.stored.derived_types_of([predicate]).get(predicate)
            if types is not None:
                arity = len(types)
        if arity is None:
            raise SemanticError(
                f"no rule defines {predicate!r}; cannot materialize it"
            )
        variables = tuple(Variable(f"V{i}") for i in range(arity))
        query = Query((Atom(predicate, variables),))
        compilation = self._compiler.compile(
            query,
            optimize_query=False,
            strategy=LfpStrategy.SEMINAIVE,
            tracer=self._tracer,
        )
        return build_plan(predicate, compilation)

    def _register_plan(self, view: str, plan: MaintenancePlan) -> None:
        self.views.register_view(
            view, {p: plan.types[p] for p in plan.derived}, plan.base
        )
        self._view_plans[view] = plan

    def _plan_for(self, view: str) -> MaintenancePlan:
        plan = self._view_plans.get(view)
        if plan is None:
            plan = self._build_plan(view)
            self._view_plans[view] = plan
        return plan

    def _tables_of(self, plan: MaintenancePlan) -> dict[str, str]:
        return plan.table_of(fact_table_name, view_table_name)

    def _invalidate_views_for(self, predicates: Iterable[str]) -> None:
        """Mark views stale whose derived support intersects ``predicates``."""
        stale = self.views.views_supported_by(predicates)
        if stale:
            self.views.mark_stale(stale)
            for view in stale:
                self._view_plans.pop(view, None)

    def _stage_rows(
        self, predicate: str, rows: list[tuple], keep_existing: bool
    ) -> str:
        """Stage the distinct update rows in a temporary relation.

        With ``keep_existing`` the stage keeps only rows the base relation
        currently holds (the rows a delete will actually remove); without
        it, only genuinely new rows (the Δ-seed of an insert).  Call before
        applying the base-table change.
        """
        schema = self.catalog.schema_of(predicate)
        name = self.database.fresh_temp_name(f"mstage_{predicate}")
        staged = RelationSchema(name, schema.types)
        self.database.create_relation(staged, temporary=True)
        self.database.insert_rows(staged, list(dict.fromkeys(rows)))
        columns = ", ".join(staged.columns)
        membership = "NOT IN" if keep_existing else "IN"
        self.database.execute(
            f"DELETE FROM {quote_identifier(name)} "
            f"WHERE ({columns}) {membership} "
            f"(SELECT {columns} FROM {quote_identifier(schema.name)})"
        )
        return name

    def _maintain_inserts(
        self, predicate: str, rows: list[tuple], views: list[str]
    ) -> int:
        plans = [self._plan_for(v) for v in views]
        merged = merge_plans(plans)
        stage = self._stage_rows(predicate, rows, keep_existing=False)
        count = self.catalog.insert_facts(predicate, rows)
        started = time.perf_counter()
        if merged.has_negation:
            self._refresh_fallback(
                views, plans, "insert", "rules contain negation", count
            )
        else:
            stats = propagate_inserts(
                self.database,
                merged,
                self._tables_of(merged),
                {predicate: stage},
                tracer=self._tracer,
            )
            self.views.bump_epoch(views)
            self.maintenance_log.append(
                MaintenanceResult(
                    tuple(views),
                    "insert",
                    "delta",
                    seconds=time.perf_counter() - started,
                    base_rows_changed=count,
                    tuples_added=stats.tuples_added,
                    iterations=stats.iterations,
                )
            )
        self.database.drop_relation(stage)
        self.database.commit()
        return count

    def _maintain_deletes(
        self, predicate: str, rows: list[tuple], views: list[str]
    ) -> int:
        plans = [self._plan_for(v) for v in views]
        merged = merge_plans(plans)
        stage = self._stage_rows(predicate, rows, keep_existing=True)
        decision = self.maintenance_policy.decide(
            self.database.row_count(stage),
            self.catalog.fact_count(predicate),
            sum(self.views.tuple_count(p) for p in merged.derived),
        )
        started = time.perf_counter()
        run = None
        if not merged.has_negation and decision.use_incremental:
            # Over-delete against the pre-deletion base relations: a rule
            # joining the deleted relation against itself derives
            # candidates from pairs of deleted rows, invisible afterwards.
            run = DeleteMaintenance(
                self.database, merged, self._tables_of(merged), tracer=self._tracer
            )
            run.overdelete({predicate: stage})
        deleted = self.catalog.delete_rows(predicate, rows)
        if run is not None:
            stats = run.apply_and_rederive()
            self.views.bump_epoch(views)
            self.maintenance_log.append(
                MaintenanceResult(
                    tuple(views),
                    "delete",
                    "dred",
                    seconds=time.perf_counter() - started,
                    base_rows_changed=deleted,
                    tuples_removed=stats.tuples_removed,
                    iterations=stats.iterations,
                    decision=decision,
                )
            )
        else:
            reason = (
                "rules contain negation"
                if merged.has_negation
                else decision.reason
            )
            self._refresh_fallback(
                views, plans, "delete", reason, deleted, decision
            )
        self.database.drop_relation(stage)
        self.database.commit()
        return deleted

    def _refresh_fallback(
        self,
        views: list[str],
        plans: list[MaintenancePlan],
        trigger: str,
        reason: str,
        base_rows_changed: int,
        decision: object | None = None,
    ) -> None:
        """Full-refresh every affected view (the incremental paths' fallback)."""
        started = time.perf_counter()
        total = 0
        for view, plan in zip(views, plans):
            total += full_refresh(
                self.database,
                plan,
                self._tables_of(plan),
                self.fastpath,
                tracer=self._tracer,
            )
            self.views.mark_group_fresh(view)
        self.views.bump_epoch(views)
        self.maintenance_log.append(
            MaintenanceResult(
                tuple(views),
                trigger,
                "refresh",
                fell_back=True,
                reason=reason,
                seconds=time.perf_counter() - started,
                base_rows_changed=base_rows_changed,
                tuples_added=total,
                decision=decision,
            )
        )

    def _answer_from_views(self, query: Query) -> "QueryResult | None":
        """Answer a query by a plain SELECT over views and base relations.

        Applicable when every goal predicate is either a fresh materialized
        relation or a base relation (and at least one goal is positive);
        returns ``None`` otherwise, sending the query down the ordinary
        compile-and-evaluate path.
        """
        table_of: dict[str, str] = {}
        for goal in query.goals:
            predicate = goal.predicate
            if predicate in table_of:
                continue
            if self.views.is_fresh(predicate):
                table_of[predicate] = view_table_name(predicate)
            elif self.catalog.has_relation(predicate):
                table_of[predicate] = fact_table_name(predicate)
            else:
                return None
        if all(goal.negated for goal in query.goals):
            return None
        started = time.perf_counter()
        select = compile_rule_body(query.as_clause())
        tracer = self._active_tracer()
        with tracer.span(
            "view_answer", category="query"
        ), self.database.phase(VIEW_ANSWER_PHASE):
            rows = self.database.execute(
                select.render([table_of[p] for p in select.table_slots]),
                select.parameters,
            )
        if not query.answer_variables:
            rows = [()] if rows else []
        elapsed = time.perf_counter() - started
        return QueryResult(
            rows, None, ExecutionResult(rows), elapsed, answered_from_view=True
        )

    # -- querying ----------------------------------------------------------------

    def compile_query(
        self,
        query: Union[Query, str],
        optimize: Union[bool, str] = DEFAULT_OPTIMIZE,
        strategy: LfpStrategy = DEFAULT_STRATEGY,
        lint: bool = False,
    ) -> CompilationResult:
        """Compile a query without executing it (Tests 1-3 use this).

        ``optimize`` is ``True``/``False``/``"supplementary"``, or ``"auto"``
        (the default) to rewrite exactly the forms whose bound goal reaches
        a recursive clique.  With ``lint=True``
        the full static-analysis report is attached to the result
        (``CompilationResult.diagnostics``) and its cost recorded as the
        ``lint`` timing component.
        """
        self._check_workspace_consistency()
        return self._compiler.compile(
            query, optimize, strategy, lint=lint, tracer=self._tracer
        )

    def query(
        self,
        query: Union[Query, str],
        optimize: Union[bool, str] = DEFAULT_OPTIMIZE,
        strategy: LfpStrategy = DEFAULT_STRATEGY,
        precompile: bool = True,
        fastpath: FastPathConfig | None = None,
        use_views: bool = True,
    ) -> QueryResult:
        """Compile and execute a query; returns rows and all measurements.

        The compiled program is looked up in (and stored into) the
        precompiled-query cache — paper conclusion 3 — keyed on the query's
        form, so queries differing only in their constants share one plan
        (``result.compilation.cached`` marks a hit; its timings are zero).
        Cached plans are dropped when the rules or relations they depend on
        change, through this session or any other handle on the database.
        Pass ``precompile=False`` to force a fresh compilation that neither
        reads nor fills the cache.

        ``optimize="auto"`` (the default) runs a form whose bound goal
        reaches a recursive clique through its magic-sets rewrite, so a
        bound query derives only what its constants reach; ``False`` keeps
        every form unrewritten.

        ``fastpath`` overrides the session's default fast-path
        configuration for this one execution.

        With ``use_views=True`` (the default) a query whose goals are all
        fresh materialized views or base relations is answered by a plain
        SELECT over those relations — no compilation, no LFP evaluation
        (``QueryResult.answered_from_view`` marks such results).  Pass
        ``use_views=False`` to force the compile-and-evaluate path.
        """
        tracer = self._active_tracer()
        with tracer.span("query", category="query", text=str(query)):
            result = self._query(
                query, optimize, strategy, precompile, fastpath, use_views, tracer
            )
        if self._tracer is not None:
            self.last_query_span = self._tracer.last_root
        return result

    def _query(
        self,
        query: Union[Query, str],
        optimize: Union[bool, str],
        strategy: LfpStrategy,
        precompile: bool,
        fastpath: FastPathConfig | None,
        use_views: bool,
        tracer: "Tracer | NullTracer",
    ) -> QueryResult:
        if isinstance(query, str):
            query = parse_query(query)
        if use_views and self.views.has_views():
            answered = self._answer_from_views(query)
            if answered is not None:
                return answered
        if precompile:
            self.precompiled.validate(self._dkb_state())
            key = cache_key(query, optimize, strategy)
            compilation = self.precompiled.get(key, query)
            if compilation is None:
                compilation = self.compile_query(query, optimize, strategy)
                self.precompiled.put(key, compilation)
        else:
            compilation = self.compile_query(query, optimize, strategy)
        started = time.perf_counter()
        with tracer.span("execute", category="execute"):
            execution = compilation.program.execute(
                self.database,
                self.catalog,
                fastpath=fastpath if fastpath is not None else self.fastpath,
                tracer=tracer,
            )
        elapsed = time.perf_counter() - started
        return QueryResult(execution.rows, compilation, execution, elapsed)

    def _dkb_state(self) -> DkbState:
        """The rule base and schema this query compiles against.

        One SQL statement, run in the caller's snapshot *before* the cache
        lookup: a pooled reader compiles against whatever the writer handle
        has committed, so only the database can say which rule base this
        query sees.  (A plan compiled after a later commit than the stamp
        it is filed under is merely dropped one query early.)
        """
        ((rules, relations, newest),) = self.database.execute(_DKB_STAMP_SQL)
        return DkbState(
            self.workspace.generation,
            rules or 0,
            (self.catalog.generation, relations, newest),
        )

    def _plans_follow(self, workspace_before: int, rules_stored: int = 0) -> None:
        """Carry the plan cache across a rule change this session made.

        ``invalidate_for`` has already dropped the plans the change could
        affect, so the rest stay valid for the state the change produces:
        the workspace as it is now and ``rules_stored`` more stored rules.
        That state is computed, not read — the update path gains no SQL —
        and only from a state the cache was valid for: if anything else
        moved in between, the next query's ``validate`` sees a mismatch.
        """
        valid = self.precompiled.valid_for
        if valid is not None and valid.workspace == workspace_before:
            self.precompiled.valid_for = valid._replace(
                workspace=self.workspace.generation,
                stored_rules=valid.stored_rules + rules_stored,
            )

    def _check_workspace_consistency(self) -> None:
        derived = self.workspace.derived_predicates
        clashes = sorted(
            p for p in derived if self.catalog.has_relation(p)
        )
        if clashes:
            raise SemanticError(
                "predicates defined by both facts and rules: "
                + ", ".join(repr(p) for p in clashes)
                + "; rename the base relation or the rule heads"
            )

    # -- updating the stored D/KB ---------------------------------------------------

    def update_stored_dkb(
        self,
        clear_workspace: bool = True,
        verify_consistency: bool = False,
        lint: bool = False,
    ) -> UpdateResult:
        """Fold the workspace rules into the Stored D/KB (paper section 4.3).

        Also performs the precompiled-query invalidation check the paper's
        conclusion 3 calls for: cached plans depending on an updated
        predicate are dropped.  With ``verify_consistency=True`` every
        integrity constraint (:mod:`repro.km.constraints`) is checked first
        and the update is refused while violations exist — the check the
        paper's section 4.3 explicitly leaves out.  With ``lint=True`` the
        update is vetted by the static analyzer and refused when any
        error-level diagnostic is found.
        """
        if verify_consistency:
            assert_consistent(self)
        generation = self.workspace.generation
        result = update_stored_dkb(
            self.workspace, self.stored, self.catalog, lint=lint,
            tracer=self._tracer,
        )
        self.precompiled.invalidate_for(
            {c.head_predicate for c in result.new_rules}
        )
        if clear_workspace:
            # Every workspace rule is now stored, so emptying the workspace
            # leaves the effective rule base — and every plan — as it was.
            self.workspace.clear()
        self._plans_follow(generation, len(result.new_rules))
        return result

    def lint(
        self,
        query: Union[Query, str, None] = None,
        config: AnalysisConfig | None = None,
    ) -> DiagnosticReport:
        """Statically analyze the session's whole rule base, collect-all.

        Runs every registered lint pass (:mod:`repro.analysis`) over the
        workspace rules plus *all* stored rules, with base-relation types
        from the extensional dictionary and stored derived types from the
        intensional dictionary.  Unlike compilation this never raises on
        findings — the report carries everything, errors included.

        Args:
            query: optional query context; enables the reachability and
                adornment passes.
            config: optional :class:`AnalysisConfig` overriding the pass
                selection.
        """
        if isinstance(query, str):
            query = parse_query(query)
        program = Program(
            list(self.workspace.program.rules) + list(self.stored.all_rules())
        )
        base_types = self.catalog.types_of(self.catalog.relation_names())
        dictionary_types = self.stored.derived_types_of(
            sorted(program.derived_predicates)
        )
        return analyze(
            program,
            query,
            config=config,
            base_types=base_types,
            dictionary_types=dictionary_types,
        )

    def check_consistency(self) -> list:
        """Evaluate every integrity constraint; return the violations.

        Constraints are denial rules with the reserved head predicate
        ``inconsistent`` (see :mod:`repro.km.constraints`).
        """
        return check_consistency(self)

    def clear_workspace(self) -> None:
        """Empty the workspace, marking stale the views built over it.

        Precompiled plans that embed workspace rules need no help: the
        workspace generation moves, so the next query drops them.
        """
        derived = self.workspace.derived_predicates
        self.workspace.clear()
        self._invalidate_views_for(derived)

    # -- introspection ------------------------------------------------------------

    @property
    def stored_rule_count(self) -> int:
        """The paper's R_s."""
        return self.stored.rule_count()

    @property
    def stored_predicate_count(self) -> int:
        """The paper's P_s."""
        return self.stored.predicate_count()

    def explain(
        self, query: Union[Query, str], optimize: Union[bool, str] = DEFAULT_OPTIMIZE
    ) -> str:
        """The generated program fragment for a query (demonstration aid)."""
        return self.compile_query(query, optimize).fragment_source
