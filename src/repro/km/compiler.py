"""The D/KB query compilation pipeline (paper section 4.2), instrumented.

Compilation walks the steps the paper describes, recording wall time per
component so Tests 1-3 can report the breakdown:

* ``setup``     — query parsing and the initial reachability analysis over
                  the Workspace D/KB (step 1.1-1.2, ``t_setup``);
* ``extract``   — the workspace/stored fixpoint pulling relevant rules out of
                  the Stored D/KB (steps 1.3-1.5, ``t_extract``);
* ``readdict``  — reading the extensional and intensional data dictionaries
                  (``t_readdict``);
* ``semantic``  — the two semantic checks (definedness, type inference);
* ``lint``      — the optional full static-analysis run (all passes of
                  :mod:`repro.analysis`, not just the error-level ones);
* ``optimize``  — the per-form rewrite decision and the magic sets
                  rewriting (generalized or factored) it chooses;
* ``eorder``    — clique finding, evaluation graph construction, and the
                  topological sort (``t_eorder``);
* ``gencompile``— emitting the program fragment, byte-compiling it, and
                  linking it with the run-time library (``t_gencompile``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from ..analysis import DiagnosticReport, analyze
from ..datalog.clauses import Program, Query
from ..datalog.evalgraph import build_evaluation_graph, evaluation_order
from ..datalog.magic import QuerySeed
from ..datalog.parser import parse_query
from ..datalog.pcg import PredicateConnectionGraph
from ..dbms.catalog import ExtensionalCatalog
from ..obs.timings import TimingsMapping
from ..runtime.program import DEFAULT_STRATEGY, LfpStrategy, QueryProgram
from .codegen import compile_and_link, generate_fragment
from .optimizer import optimization_applies, optimize
from .policy import (
    DEFAULT_OPTIMIZE,
    AdaptiveDecision,
    check_optimize,
    decide_rewrite,
)
from .semantic import check_semantics
from .stored import StoredDKB
from .workspace import WorkspaceDKB


@dataclass
class CompilationTimings(TimingsMapping):
    """Wall-clock seconds per compilation component: each is the duration
    of the same-named child span of the ``compile`` span.

    Also a read-only :class:`~collections.abc.Mapping` over the components
    (iteration excludes ``total``, so ``sum(t.values()) == t.total``).
    """

    setup: float = 0.0
    extract: float = 0.0
    readdict: float = 0.0
    semantic: float = 0.0
    lint: float = 0.0
    optimize: float = 0.0
    eorder: float = 0.0
    gencompile: float = 0.0


@dataclass
class CompilationResult:
    """A compiled query with its measurements.

    ``counts`` records the paper's query parameters: ``R_rs`` (stored rules
    relevant to the query), ``P_rs`` (stored derived predicates relevant),
    ``relevant_rules`` and ``relevant_predicates`` overall.
    ``adaptive_decision`` is the per-form rewrite decision when the compiler
    was asked to make one (``optimize_query="auto"``, the default).
    ``diagnostics`` holds the full collect-all lint report when the compiler
    was invoked with ``lint=True`` (otherwise ``None``).
    ``cached`` marks a plan served by the precompiled-query cache: its
    ``timings`` are zero (nothing was compiled for that call) and
    ``fragment_source`` is the fragment of the compilation that filled the
    cache, which may name other constants.
    """

    program: QueryProgram
    fragment_source: str
    timings: CompilationTimings
    relevant_rules: Program
    counts: dict[str, int] = field(default_factory=dict)
    optimized: bool = False
    adaptive_decision: "AdaptiveDecision | None" = None
    diagnostics: DiagnosticReport | None = None
    cached: bool = False


class QueryCompiler:
    """Compiles D/KB queries into linked query programs."""

    def __init__(
        self,
        workspace: WorkspaceDKB,
        stored: StoredDKB,
        catalog: ExtensionalCatalog,
    ):
        self.workspace = workspace
        self.stored = stored
        self.catalog = catalog

    def compile(
        self,
        query: Union[Query, str],
        optimize_query: Union[bool, str] = DEFAULT_OPTIMIZE,
        strategy: LfpStrategy = DEFAULT_STRATEGY,
        lint: bool = False,
    ) -> CompilationResult:
        """Compile ``query`` into an executable program.

        Args:
            query: a :class:`Query` or its concrete syntax.
            optimize_query: apply generalized magic sets when applicable —
                ``True``, ``False``, or ``"auto"`` (the default) to rewrite
                exactly the forms whose bound goal reaches a recursive
                clique, factored where the clique allows it
                (:func:`repro.km.policy.decide_rewrite`).
            strategy: LFP strategy the program will use for cliques.
            lint: additionally run the full static-analysis pass set over
                the relevant rules and attach the collect-all report to
                ``CompilationResult.diagnostics``; the time spent is the
                ``lint`` timing component and a ``lint`` phase in the DBMS
                statistics.

        Every compilation component is a child span of one ``compile``
        span on the stored D/KB's database; its duration is the timing.

        Raises:
            ValueError: ``optimize_query`` is not ``True``, ``False`` or
                ``"auto"``.
            SemanticError: from the semantic checks.
            OptimizationError: only when optimization was requested for a
                query it can never apply to *and* the rules make it
                unusable; inapplicable optimization falls back silently
                (recorded in ``CompilationResult.optimized``).
        """
        check_optimize(optimize_query)
        with self.stored.database.span("compile", "compile") as compile_span:
            result = self._compile(query, optimize_query, strategy, lint)
            compile_span.attributes.update(result.counts)
            compile_span.set("optimized", result.optimized)
        return result

    def _compile(
        self,
        query: Union[Query, str],
        optimize_query: Union[bool, str],
        strategy: LfpStrategy,
        lint: bool,
    ) -> CompilationResult:
        timings = CompilationTimings()
        database = self.stored.database

        # -- setup: parse the query, initial workspace reachability ----------
        with database.span("setup", "compile") as span:
            if isinstance(query, str):
                query = parse_query(query)
            goal_predicates = set(query.predicates)
            workspace_rules = self.workspace.program.rules
            pcg = PredicateConnectionGraph(workspace_rules)
            relevant_predicates = set(goal_predicates)
            relevant_predicates.update(pcg.reachable_from(*goal_predicates))
            relevant = Program()
            for clause in workspace_rules:
                if clause.head_predicate in relevant_predicates:
                    relevant.add(clause)
        timings.setup = span.duration

        # -- extract: workspace/stored fixpoint (steps 1.3-1.5) ---------------
        with database.span("extract", "compile") as span:
            stored_rule_count = 0
            while True:
                extracted = self.stored.extract_relevant_rules(relevant_predicates)
                new_rules = [c for c in extracted if c not in relevant]
                for clause in new_rules:
                    relevant.add(clause)
                stored_rule_count += len(new_rules)
                # Recompute reachability over the combined rules: stored rules
                # may refer back to workspace predicates and vice versa.
                combined = Program(list(relevant) + workspace_rules)
                combined_pcg = PredicateConnectionGraph(combined.rules)
                updated = set(goal_predicates)
                updated.update(combined_pcg.reachable_from(*goal_predicates))
                for clause in workspace_rules:
                    if clause.head_predicate in updated:
                        relevant.add(clause)
                if updated == relevant_predicates and not new_rules:
                    break
                relevant_predicates = updated
        timings.extract = span.duration

        # -- readdict: extensional + intensional dictionaries ----------------
        with database.span("readdict", "compile") as span:
            derived = relevant.derived_predicates
            referenced = set(relevant_predicates) | goal_predicates
            base_candidates = sorted(referenced - derived)
            base_types = self.catalog.types_of(base_candidates)
            dictionary_types = self.stored.derived_types_of(sorted(derived))
        timings.readdict = span.duration

        # -- semantic checks ---------------------------------------------------
        with database.span("semantic", "compile") as span:
            report = check_semantics(relevant, query, base_types, dictionary_types)
        timings.semantic = span.duration

        # -- lint: full collect-all analysis (optional) ------------------------
        diagnostics: DiagnosticReport | None = None
        if lint:
            with database.span("lint", "compile") as span:
                diagnostics = analyze(
                    relevant,
                    query,
                    base_types=base_types,
                    dictionary_types=dictionary_types,
                )
            timings.lint = span.duration
            database.statistics.record_span("lint", timings.lint)

        # -- optimization (optional, or decided per form) ----------------------
        rules_for_program = relevant
        goal_rewrites: dict[str, str] = {}
        seed_facts: dict[str, tuple[tuple, ...]] = {}
        seed: QuerySeed | None = None
        types = {p: report.types.of(p) for p in derived}
        types.update(base_types)
        optimized = factored = False
        decision: AdaptiveDecision | None = None
        with database.span("optimize", "compile") as span:
            if optimize_query == "auto":
                decision = decide_rewrite(relevant, query)
                rewrite = decision.rewrite
            else:
                rewrite = "magic" if optimize_query else "plain"
            if rewrite != "plain" and optimization_applies(query, derived):
                result = optimize(
                    relevant, query, report.types, factor=rewrite == "factored"
                )
                rules_for_program = result.rules
                goal_rewrites = result.goal_rewrites
                seed_facts = result.seed_facts
                seed = result.query_seed
                types.update(result.new_types)
                optimized = True
                factored = result.factored
        timings.optimize = span.duration

        # -- evaluation order list ---------------------------------------------
        with database.span("eorder", "compile") as span:
            graph = build_evaluation_graph(rules_for_program)
            order = evaluation_order(graph)
        timings.eorder = span.duration

        # -- code generation, compile, link -------------------------------------
        with database.span("gencompile", "compile") as span:
            program_derived = rules_for_program.derived_predicates
            base_predicates = frozenset(
                p for p in referenced if p not in derived
            ) | frozenset(
                p
                for clause in rules_for_program
                for p in clause.body_predicates
                if p not in program_derived
                and p not in seed_facts
                and (seed is None or p != seed.predicate)
            )
            source = generate_fragment(
                query,
                order,
                types,
                base_predicates,
                strategy,
                optimized,
                goal_rewrites,
                seed_facts,
                seed,
                factored,
            )
            program = compile_and_link(source)
        timings.gencompile = span.duration

        counts = {
            "relevant_rules": len(relevant.rules),
            "relevant_predicates": len(relevant_predicates),
            "stored_rules_extracted": stored_rule_count,
            "relevant_derived_predicates": len(derived),
            "stored_derived_relevant": len(dictionary_types),
        }
        return CompilationResult(
            program,
            source,
            timings,
            relevant,
            counts,
            optimized,
            decision,
            diagnostics,
        )
