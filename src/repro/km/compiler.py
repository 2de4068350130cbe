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
* ``optimize``  — the per-form rewrite decision and the generalized magic
                  sets rewriting it chooses;
* ``eorder``    — clique finding, evaluation graph construction, and the
                  topological sort (``t_eorder``);
* ``gencompile``— emitting the program fragment, byte-compiling it, and
                  linking it with the run-time library (``t_gencompile``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Union

from ..analysis import DiagnosticReport, analyze
from ..datalog.adornment import reorder_body_for_sip
from ..datalog.clauses import Program, Query
from ..datalog.evalgraph import build_evaluation_graph, evaluation_order
from ..datalog.magic import QuerySeed
from ..datalog.parser import parse_query
from ..datalog.pcg import PredicateConnectionGraph
from ..dbms.catalog import ExtensionalCatalog
from ..obs.timings import TimingsMapping
from ..obs.trace import NULL_TRACER, NullTracer, Tracer
from ..runtime.program import DEFAULT_STRATEGY, LfpStrategy, QueryProgram
from .codegen import compile_and_link, generate_fragment
from .optimizer import optimization_applies, optimize
from .policy import DEFAULT_OPTIMIZE, AdaptiveDecision, decide_rewrite
from .semantic import check_semantics
from .stored import StoredDKB
from .workspace import WorkspaceDKB


@dataclass
class CompilationTimings(TimingsMapping):
    """Wall-clock seconds per compilation component.

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

    @property
    def total(self) -> float:
        """Total compilation time ``t_c``."""
        return (
            self.setup
            + self.extract
            + self.readdict
            + self.semantic
            + self.lint
            + self.optimize
            + self.eorder
            + self.gencompile
        )

    def as_dict(self) -> dict[str, float]:
        """Component name to seconds, plus the total."""
        return {
            "setup": self.setup,
            "extract": self.extract,
            "readdict": self.readdict,
            "semantic": self.semantic,
            "lint": self.lint,
            "optimize": self.optimize,
            "eorder": self.eorder,
            "gencompile": self.gencompile,
            "total": self.total,
        }


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
        reorder_bodies: bool = False,
        lint: bool = False,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> CompilationResult:
        """Compile ``query`` into an executable program.

        Args:
            query: a :class:`Query` or its concrete syntax.
            optimize_query: apply generalized magic sets when applicable —
                ``True``/``"magic"``, ``"supplementary"``, ``False``, or
                ``"auto"`` (the default) to rewrite exactly the forms whose
                bound goal reaches a recursive clique
                (:func:`repro.km.policy.decide_rewrite`).
            strategy: LFP strategy the program will use for cliques.
            reorder_bodies: greedily reorder rule bodies so bound atoms come
                first (the information-passing strategy the paper lists as
                designed but unimplemented; :func:`reorder_body_for_sip`).
            lint: additionally run the full static-analysis pass set over
                the relevant rules and attach the collect-all report to
                ``CompilationResult.diagnostics``; the time spent is the
                ``lint`` timing component and a ``lint`` phase in the DBMS
                statistics.
            tracer: optional observability sink; every compilation
                component becomes a child span of one ``compile`` span.

        Raises:
            SemanticError: from the semantic checks.
            OptimizationError: only when optimization was requested for a
                query it can never apply to *and* the rules make it
                unusable; inapplicable optimization falls back silently
                (recorded in ``CompilationResult.optimized``).
        """
        valid_strings = ("auto", "magic", "supplementary")
        if isinstance(optimize_query, str) and optimize_query not in valid_strings:
            raise ValueError(
                f"optimize_query must be a bool or one of {valid_strings}, "
                f"got {optimize_query!r}"
            )
        tracer = tracer if tracer is not None else NULL_TRACER
        with tracer.span("compile", category="compile") as compile_span:
            result = self._compile(
                query, optimize_query, strategy, reorder_bodies, lint, tracer
            )
            if tracer.enabled:
                for key, value in result.counts.items():
                    compile_span.set(key, value)
                compile_span.set("optimized", result.optimized)
        return result

    def _compile(
        self,
        query: Union[Query, str],
        optimize_query: Union[bool, str],
        strategy: LfpStrategy,
        reorder_bodies: bool,
        lint: bool,
        tracer: "Tracer | NullTracer",
    ) -> CompilationResult:
        timings = CompilationTimings()

        # -- setup: parse the query, initial workspace reachability ----------
        started = time.perf_counter()
        with tracer.span("setup", category="compile"):
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
        timings.setup = time.perf_counter() - started

        # -- extract: workspace/stored fixpoint (steps 1.3-1.5) ---------------
        started = time.perf_counter()
        with tracer.span("extract", category="compile"):
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
        timings.extract = time.perf_counter() - started

        # -- readdict: extensional + intensional dictionaries ----------------
        started = time.perf_counter()
        with tracer.span("readdict", category="compile"):
            derived = relevant.derived_predicates
            referenced = set(relevant_predicates) | goal_predicates
            base_candidates = sorted(referenced - derived)
            base_types = self.catalog.types_of(base_candidates)
            dictionary_types = self.stored.derived_types_of(sorted(derived))
        timings.readdict = time.perf_counter() - started

        # -- semantic checks ---------------------------------------------------
        started = time.perf_counter()
        with tracer.span("semantic", category="compile"):
            report = check_semantics(relevant, query, base_types, dictionary_types)
        timings.semantic = time.perf_counter() - started

        # -- lint: full collect-all analysis (optional) ------------------------
        diagnostics: DiagnosticReport | None = None
        if lint:
            started = time.perf_counter()
            with tracer.span("lint", category="compile"):
                diagnostics = analyze(
                    relevant,
                    query,
                    base_types=base_types,
                    dictionary_types=dictionary_types,
                )
            timings.lint = time.perf_counter() - started
            self.stored.database.statistics.record_span("lint", timings.lint)

        # -- optimization (optional, or decided per form) ----------------------
        rules_for_program = relevant
        goal_rewrites: dict[str, str] = {}
        seed_facts: dict[str, tuple[tuple, ...]] = {}
        seed: QuerySeed | None = None
        types = {p: report.types.of(p) for p in derived}
        types.update(base_types)
        optimized = False
        decision: AdaptiveDecision | None = None
        started = time.perf_counter()
        with tracer.span("optimize", category="compile"):
            if optimize_query == "auto":
                decision = decide_rewrite(relevant, query)
                apply_rewrite = decision.use_magic
            else:
                apply_rewrite = bool(optimize_query)
            if apply_rewrite and optimization_applies(query, derived):
                method = (
                    "supplementary" if optimize_query == "supplementary" else "magic"
                )
                result = optimize(relevant, query, report.types, method)
                rules_for_program = result.rules
                goal_rewrites = result.goal_rewrites
                seed_facts = result.seed_facts
                seed = result.query_seed
                types.update(result.new_types)
                optimized = True
        if optimized or decision is not None:
            timings.optimize = time.perf_counter() - started

        # -- optional body reordering (the paper's unimplemented IP strategy) --
        if reorder_bodies:
            reordered = Program()
            for clause in rules_for_program:
                reordered.add(reorder_body_for_sip(clause, ()))
            rules_for_program = reordered

        # -- evaluation order list ---------------------------------------------
        started = time.perf_counter()
        with tracer.span("eorder", category="compile"):
            graph = build_evaluation_graph(rules_for_program)
            order = evaluation_order(graph)
        timings.eorder = time.perf_counter() - started

        # -- code generation, compile, link -------------------------------------
        started = time.perf_counter()
        with tracer.span("gencompile", category="compile"):
            base_predicates = frozenset(
                p for p in referenced if p not in derived
            ) | frozenset(
                p
                for clause in rules_for_program
                for p in clause.body_predicates
                if p not in rules_for_program.derived_predicates
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
            )
            program = compile_and_link(source)
        timings.gencompile = time.perf_counter() - started

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
