"""Experiment runners: one function per test of the paper's section 5.3.

Each runner builds its workload, performs the measurement, and returns plain
dataclass rows that :mod:`repro.bench.reporting` renders in the shape of the
paper's figures and tables.  Wall-clock numbers will differ from 1988
hardware by orders of magnitude; the *shapes* — what is flat, what grows,
which strategy wins, where the crossover sits — are the reproduction targets
and are asserted by the benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dbms.engine import PhaseStats
from ..km.config import TestbedConfig
from ..km.session import Testbed
from ..runtime.context import (
    PHASE_RHS_EVAL,
    PHASE_TEMP_TABLES,
    PHASE_TERMINATION,
)
from ..runtime.program import LfpStrategy
from ..workloads.queries import (
    ancestor_query,
    make_ancestor_testbed,
    selectivity_of,
)
from ..workloads.relations import (
    full_binary_trees,
    first_node_at_level,
    tree_node,
)
from ..workloads.rulegen import make_rule_base
from .timing import timed

# ---------------------------------------------------------------------------
# Test 1 (Figures 7 and 8): relevant-rule extraction time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtractPoint:
    """One (R_s, R_rs) measurement of the extraction step."""

    total_rules: int  # R_s
    relevant_rules: int  # R_rs
    seconds: float
    statements: int
    rules_extracted: int


def _testbed_with_rule_base(
    total_rules: int, relevant_rules: int, compiled: bool = True
) -> tuple[Testbed, object]:
    rule_base = make_rule_base(total_rules, relevant_rules)
    testbed = Testbed(TestbedConfig(compiled_rule_storage=compiled))
    for base in rule_base.base_predicates:
        testbed.define_base_relation(base, ("TEXT", "TEXT"))
    testbed.workspace.add_clauses(rule_base.program.rules)
    testbed.update_stored_dkb()
    return testbed, rule_base


def run_extract_experiment(
    total_rules_values: tuple[int, ...] = (60, 120, 240, 480),
    relevant_rules_values: tuple[int, ...] = (1, 7, 20),
    repetitions: int = 5,
) -> list[ExtractPoint]:
    """Test 1: t_extract as a function of R_s and R_rs."""
    points: list[ExtractPoint] = []
    for relevant_rules in relevant_rules_values:
        for total_rules in total_rules_values:
            testbed, rule_base = _testbed_with_rule_base(
                total_rules, relevant_rules
            )
            root = rule_base.query_module.root_predicate
            run = timed(
                lambda: testbed.stored.extract_relevant_rules([root]),
                repetitions,
            )
            testbed.database.statistics.reset()
            extracted = testbed.stored.extract_relevant_rules([root])
            statements = testbed.database.statistics.total.statements
            points.append(
                ExtractPoint(
                    total_rules,
                    relevant_rules,
                    run.seconds,
                    statements,
                    len(extracted.rules),
                )
            )
            testbed.close()
    return points


# ---------------------------------------------------------------------------
# Test 2 (Figures 9 and 10): data-dictionary read time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DictReadPoint:
    """One (P_s, P_rs) measurement of the dictionary read."""

    total_predicates: int  # P_s
    relevant_predicates: int  # P_rs
    seconds: float
    statements: int


def run_dictionary_experiment(
    total_predicate_values: tuple[int, ...] = (50, 100, 200, 400),
    relevant_predicate_values: tuple[int, ...] = (1, 4, 10),
    repetitions: int = 5,
) -> list[DictReadPoint]:
    """Test 2: t_readdict as a function of P_s and P_rs."""
    points: list[DictReadPoint] = []
    for relevant in relevant_predicate_values:
        for total in total_predicate_values:
            testbed, rule_base = _testbed_with_rule_base(total, relevant)
            wanted = list(rule_base.query_module.predicates)
            run = timed(
                lambda: testbed.stored.derived_types_of(wanted), repetitions
            )
            testbed.database.statistics.reset()
            testbed.stored.derived_types_of(wanted)
            statements = testbed.database.statistics.total.statements
            points.append(
                DictReadPoint(total, relevant, run.seconds, statements)
            )
            testbed.close()
    return points


# ---------------------------------------------------------------------------
# Test 3 (Table 4): compilation-time breakdown
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompileBreakdownRow:
    """Component times for one query's compilation."""

    relevant_rules: int  # R_rs
    total_rules: int  # R_s
    components: dict[str, float] = field(hash=False)

    @property
    def total(self) -> float:
        """Total compilation time."""
        return sum(self.components.values())

    def percentage(self, component: str) -> float:
        """Percentage contribution of one component."""
        total = self.total
        return 100.0 * self.components[component] / total if total else 0.0


def run_compile_breakdown(
    relevant_rules_values: tuple[int, ...] = (1, 7, 20),
    total_rules: int = 189,
    repetitions: int = 5,
) -> list[CompileBreakdownRow]:
    """Test 3: where compilation time goes, as R_rs grows."""
    rows: list[CompileBreakdownRow] = []
    for relevant_rules in relevant_rules_values:
        testbed, rule_base = _testbed_with_rule_base(total_rules, relevant_rules)
        query = rule_base.query_text()
        samples: list[dict[str, float]] = []
        for __ in range(repetitions):
            # The paper's code generator: no one-statement plan to build,
            # no rewrite decision to make.
            result = testbed.compile_query(
                query, optimize=False, strategy=LfpStrategy.SEMINAIVE
            )
            samples.append(result.timings.as_dict())
        # Median per component, dropping the redundant total and the
        # optimize span, which times only the decision not to rewrite: the
        # paper's Table 4 has no optimize component.
        components = {
            name: sorted(sample[name] for sample in samples)[repetitions // 2]
            for name in samples[0]
            if name not in ("total", "optimize")
        }
        rows.append(CompileBreakdownRow(relevant_rules, total_rules, components))
        testbed.close()
    return rows


# ---------------------------------------------------------------------------
# Tests 4, 5, 7 (Figures 11-14): execution time over tree workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionPoint:
    """One ancestor-query execution measurement."""

    label: str
    selectivity: float  # the paper's D_rel / D
    relevant_facts: int  # D_rel
    total_facts: int  # D
    seconds: float
    iterations: int
    answers: int
    strategy: str
    optimized: bool
    node_seconds: dict[str, float] = field(default_factory=dict, hash=False)


def _run_ancestor(
    testbed: Testbed,
    relation,
    root: str,
    strategy: LfpStrategy,
    optimized: bool,
    repetitions: int,
    label: str,
) -> ExecutionPoint:
    compiled = testbed.compile_query(
        ancestor_query(root), optimize=optimized, strategy=strategy
    )
    run = timed(
        lambda: compiled.program.execute(testbed.database, testbed.catalog),
        repetitions,
    )
    execution = run.value
    point = selectivity_of(relation, root)
    return ExecutionPoint(
        label,
        point.selectivity,
        point.relevant_facts,
        point.total_facts,
        run.seconds,
        execution.total_iterations,
        len(execution.rows),
        strategy.value,
        optimized,
        dict(execution.node_seconds),
    )


def run_relevant_fraction_experiment(
    depth: int = 9,
    growing_depths: tuple[int, ...] = (6, 7, 8, 9),
    fixed_subtree_depth: int = 5,
    repetitions: int = 3,
) -> tuple[list[ExecutionPoint], list[ExecutionPoint]]:
    """Test 4 (Figure 11): t_e vs the relevant-fact fraction D_rel/D.

    Returns two series: (a) fixed D, varying D_rel via subtree roots at each
    level of one tree; (b) fixed D_rel (same-depth subtree), growing D via
    progressively deeper trees.
    """
    # Series (a): fixed relation, roots at levels 1..depth-1.
    relation = full_binary_trees(1, depth)
    testbed = make_ancestor_testbed(relation)
    fixed_d: list[ExecutionPoint] = []
    for level in range(1, depth):
        root = tree_node("t", first_node_at_level(level))
        fixed_d.append(
            _run_ancestor(
                testbed,
                relation,
                root,
                LfpStrategy.SEMINAIVE,
                False,
                repetitions,
                f"level-{level}",
            )
        )
    testbed.close()

    # Series (b): same subtree shape, relation grows.
    fixed_rel: list[ExecutionPoint] = []
    for tree_depth in growing_depths:
        relation = full_binary_trees(1, tree_depth)
        testbed = make_ancestor_testbed(relation)
        level = tree_depth - fixed_subtree_depth + 1
        root = tree_node("t", first_node_at_level(level))
        fixed_rel.append(
            _run_ancestor(
                testbed,
                relation,
                root,
                LfpStrategy.SEMINAIVE,
                False,
                repetitions,
                f"depth-{tree_depth}",
            )
        )
        testbed.close()
    return fixed_d, fixed_rel


def run_naive_vs_seminaive(
    depth: int = 9, repetitions: int = 3
) -> list[ExecutionPoint]:
    """Test 5 (Figure 12): naive vs semi-naive over subtree roots."""
    relation = full_binary_trees(1, depth)
    testbed = make_ancestor_testbed(relation)
    points: list[ExecutionPoint] = []
    for level in range(1, depth):
        root = tree_node("t", first_node_at_level(level))
        for strategy in (LfpStrategy.NAIVE, LfpStrategy.SEMINAIVE):
            points.append(
                _run_ancestor(
                    testbed,
                    relation,
                    root,
                    strategy,
                    False,
                    repetitions,
                    f"level-{level}",
                )
            )
    testbed.close()
    return points


# ---------------------------------------------------------------------------
# Test 6 (Table 5): LFP phase breakdown
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LfpBreakdownRow:
    """Phase statistics of one LFP evaluation strategy."""

    strategy: str
    phases: dict[str, PhaseStats] = field(hash=False)
    total_seconds: float = 0.0

    def phase_seconds(self, name: str) -> float:
        """Wall seconds attributed to one phase."""
        stats = self.phases.get(name)
        return stats.seconds if stats else 0.0

    def phase_percentage(self, name: str) -> float:
        """Percentage of total LFP time in one phase."""
        if not self.total_seconds:
            return 0.0
        return 100.0 * self.phase_seconds(name) / self.total_seconds


LFP_PHASES = (PHASE_TEMP_TABLES, PHASE_RHS_EVAL, PHASE_TERMINATION)


def run_lfp_breakdown(
    depth: int = 9, root_level: int = 1
) -> list[LfpBreakdownRow]:
    """Test 6 (Table 5): where naive and semi-naive evaluation spend time."""
    relation = full_binary_trees(1, depth)
    rows: list[LfpBreakdownRow] = []
    for strategy in (LfpStrategy.NAIVE, LfpStrategy.SEMINAIVE):
        testbed = make_ancestor_testbed(relation)
        root = tree_node("t", first_node_at_level(root_level))
        compiled = testbed.compile_query(
            ancestor_query(root), optimize=False, strategy=strategy
        )
        testbed.database.statistics.reset()
        timed(
            lambda: compiled.program.execute(testbed.database, testbed.catalog), 1
        )
        phases = testbed.database.statistics.phases()
        lfp_seconds = sum(
            phases[name].seconds for name in LFP_PHASES if name in phases
        )
        rows.append(LfpBreakdownRow(strategy.value, phases, lfp_seconds))
        testbed.close()
    return rows


# ---------------------------------------------------------------------------
# Test 7 (Figures 13 and 14): the magic-sets selectivity crossover
# ---------------------------------------------------------------------------


def run_magic_crossover(
    depth: int = 9,
    strategies: tuple[LfpStrategy, ...] = (
        LfpStrategy.SEMINAIVE,
        LfpStrategy.NAIVE,
    ),
    repetitions: int = 3,
) -> list[ExecutionPoint]:
    """Test 7 (Figure 13): t_e with and without magic sets vs selectivity."""
    relation = full_binary_trees(1, depth)
    points: list[ExecutionPoint] = []
    for strategy in strategies:
        testbed = make_ancestor_testbed(relation)
        for level in range(1, depth):
            root = tree_node("t", first_node_at_level(level))
            for optimized in (False, True):
                points.append(
                    _run_ancestor(
                        testbed,
                        relation,
                        root,
                        strategy,
                        optimized,
                        repetitions,
                        f"level-{level}",
                    )
                )
        testbed.close()
    return points


def find_crossover(points: list[ExecutionPoint], strategy: str) -> float | None:
    """Lowest selectivity at which optimization stops paying for ``strategy``.

    Compares the optimized and unoptimized runs point-by-point (they share
    labels) and returns the selectivity of the first point, in increasing
    selectivity order, where the optimized run is slower; ``None`` when
    optimization wins everywhere.
    """
    plain = {
        p.label: p for p in points if p.strategy == strategy and not p.optimized
    }
    optimized = [
        p for p in points if p.strategy == strategy and p.optimized
    ]
    for point in sorted(optimized, key=lambda p: p.selectivity):
        baseline = plain.get(point.label)
        if baseline is not None and point.seconds > baseline.seconds:
            return point.selectivity
    return None


def run_low_selectivity_blowup(
    depth: int = 13, repetitions: int = 1
) -> tuple[ExecutionPoint, ExecutionPoint]:
    """Test 7's second part: a very low selectivity query on a large relation.

    Returns (unoptimized, optimized) points; the paper reports orders of
    magnitude between them.
    """
    relation = full_binary_trees(1, depth)
    testbed = make_ancestor_testbed(relation)
    # Near-leaf subtree: tiny D_rel against a big D.
    root = tree_node("t", first_node_at_level(depth - 2))
    plain = _run_ancestor(
        testbed, relation, root, LfpStrategy.SEMINAIVE, False, repetitions, "plain"
    )
    optimized = _run_ancestor(
        testbed, relation, root, LfpStrategy.SEMINAIVE, True, repetitions, "magic"
    )
    testbed.close()
    return plain, optimized


# ---------------------------------------------------------------------------
# Tests 8 and 9 (Figure 15, Table 8): stored-D/KB update times
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UpdatePoint:
    """One stored-D/KB update measurement."""

    stored_rules: int  # R_s before the update
    workspace_rules: int  # R_w
    compiled_storage: bool
    seconds: float
    components: dict[str, float] = field(hash=False, default_factory=dict)

    def percentage(self, component: str) -> float:
        """Percentage contribution of one update component."""
        return 100.0 * self.components[component] / self.seconds if self.seconds else 0.0


def run_update_experiment(
    stored_rules_values: tuple[int, ...] = (9, 45, 90, 135, 189),
    workspace_rules: int = 1,
    repetitions: int = 3,
) -> list[UpdatePoint]:
    """Test 8 (Figure 15): t_u vs R_s, with and without compiled storage."""
    points: list[UpdatePoint] = []
    for compiled in (True, False):
        for stored_rules in stored_rules_values:
            samples: list[UpdatePoint] = []
            for __ in range(repetitions):
                samples.append(
                    _measure_update(stored_rules, workspace_rules, compiled)
                )
            samples.sort(key=lambda p: p.seconds)
            points.append(samples[len(samples) // 2])
    return points


def _measure_update(
    stored_rules: int, workspace_rules: int, compiled: bool
) -> UpdatePoint:
    chain = min(20, stored_rules)
    testbed, rule_base = _testbed_with_rule_base(
        stored_rules, chain, compiled=compiled
    )
    # A fresh module of R_w rules whose terminal rule references a stored
    # predicate: the update must then extract the stored rules relevant to
    # the workspace rules, as the paper's update algorithm prescribes.
    new_module = make_rule_base(workspace_rules, workspace_rules)
    hook = rule_base.query_module.root_predicate
    for base in new_module.base_predicates:
        testbed.define_base_relation(f"w_{base}", ("TEXT", "TEXT"))
    for clause in new_module.program.rules:
        text = str(clause).replace("base_", "w_base_").replace("p_", "wp_")
        terminal = f"wp_q_{workspace_rules - 1}(X, Y) :- w_base_q(X, Y)."
        if text == terminal:
            text = f"wp_q_{workspace_rules - 1}(X, Y) :- {hook}(X, Y)."
        testbed.workspace.define(text)
    result = testbed.update_stored_dkb()
    timings = result.timings
    point = UpdatePoint(
        stored_rules,
        workspace_rules,
        compiled,
        timings.total,
        {
            "extract": timings.extract,
            "closure": timings.closure,
            "typecheck": timings.typecheck,
            "store": timings.store,
        },
    )
    testbed.close()
    return point


def run_update_breakdown(
    configurations: tuple[tuple[int, int], ...] = ((36, 189), (1, 189)),
    repetitions: int = 3,
) -> list[UpdatePoint]:
    """Test 9 (Table 8): update-time breakdown for (R_w, R_s) configurations."""
    points: list[UpdatePoint] = []
    for workspace_rules, stored_rules in configurations:
        samples = [
            _measure_update(stored_rules, workspace_rules, compiled=True)
            for __ in range(repetitions)
        ]
        samples.sort(key=lambda p: p.seconds)
        points.append(samples[len(samples) // 2])
    return points


# ---------------------------------------------------------------------------
# Ablation (paper conclusions 6-8): the in-DBMS LFP and TC operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AblationPoint:
    """One strategy's time on the shared ancestor workload."""

    strategy: str
    seconds: float
    answers: int


#: Conclusion 8's specialised operator: the descendants of one source as a
#: unary recursive CTE over the edge relation, nothing else in the statement.
_SOURCE_CLOSURE_SQL = (
    'WITH RECURSIVE reach(c0) AS (SELECT c1 FROM "e_parent" WHERE c0 = ? '
    'UNION SELECT e.c1 FROM "e_parent" AS e, reach WHERE e.c0 = reach.c0) '
    "SELECT c0 FROM reach"
)


def run_lfp_operator_ablation(
    depth: int = 10, repetitions: int = 3
) -> list[AblationPoint]:
    """Compare application-program LFP against the in-DBMS operators.

    ``naive`` and ``seminaive`` are the paper's application loops;
    ``lfp_cte`` is the plain plan as one fused recursive-CTE statement (the
    generalized LFP operator of conclusion 6); ``tc_operator`` is the
    source-bound closure as a bare unary recursive CTE (conclusion 8).
    """
    relation = full_binary_trees(1, depth)
    root = tree_node("t", 1)
    testbed = make_ancestor_testbed(relation)
    points: list[AblationPoint] = []
    try:
        for strategy in (
            LfpStrategy.NAIVE,
            LfpStrategy.SEMINAIVE,
            LfpStrategy.LFP_CTE,
        ):
            compiled = testbed.compile_query(
                ancestor_query(root), optimize=False, strategy=strategy
            )
            run = timed(
                lambda: compiled.program.execute(testbed.database, testbed.catalog),
                repetitions,
            )
            points.append(
                AblationPoint(strategy.value, run.seconds, len(run.value.rows))
            )
        run = timed(
            lambda: testbed.database.execute(_SOURCE_CLOSURE_SQL, (root,)),
            repetitions,
        )
        points.append(AblationPoint("tc_operator", run.seconds, len(run.value)))
    finally:
        testbed.close()
    return points
