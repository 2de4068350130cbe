"""Experiment runners for the extension features.

These cover the parts of the paper that its testbed left unimplemented and
this reproduction built out: query precompilation (conclusion 3), and the
alternative rule rewriting / special-operator strategies of section 2.5
(supplementary magic sets and the counting method).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..km.config import TestbedConfig
from ..km.session import Testbed
from ..runtime.counting import evaluate_counting, recognize_counting_form
from ..runtime.program import LfpStrategy
from ..datalog.parser import parse_program
from ..workloads.queries import ancestor_query
from ..workloads.relations import (
    first_node_at_level,
    full_binary_trees,
    tree_node,
)
from ..workloads.rulegen import make_rule_base
from .timing import timed

# ---------------------------------------------------------------------------
# Query precompilation: repeated-query amortisation and invalidation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrecompilePoint:
    """Latency of one query under compile-every-time vs precompiled."""

    relevant_rules: int
    compile_seconds: float
    execute_seconds: float
    cached_total_seconds: float

    @property
    def uncached_total_seconds(self) -> float:
        """Compile + execute, the non-precompiled path."""
        return self.compile_seconds + self.execute_seconds

    @property
    def speedup(self) -> float:
        """Repeated-query speedup from precompilation."""
        if not self.cached_total_seconds:
            return float("inf")
        return self.uncached_total_seconds / self.cached_total_seconds


def run_precompilation(
    relevant_rules_values: tuple[int, ...] = (5, 10, 20),
    total_rules: int = 120,
    repetitions: int = 5,
) -> list[PrecompilePoint]:
    """Measure repeated-query latency with and without precompilation."""
    points: list[PrecompilePoint] = []
    for relevant in relevant_rules_values:
        rule_base = make_rule_base(total_rules, relevant)
        testbed = Testbed()
        for base in rule_base.base_predicates:
            testbed.define_base_relation(base, ("TEXT", "TEXT"))
        testbed.workspace.add_clauses(rule_base.program.rules)
        testbed.update_stored_dkb()
        testbed.load_facts(
            rule_base.query_module.base_predicate, [("a", "b"), ("b", "c")]
        )
        query = rule_base.query_text()

        compile_run = timed(lambda: testbed.compile_query(query), repetitions)
        uncached = timed(
            lambda: testbed.query(query, precompile=False), repetitions
        )
        testbed.query(query)  # warm the cache
        cached = timed(lambda: testbed.query(query), repetitions)
        points.append(
            PrecompilePoint(
                relevant,
                compile_run.seconds,
                uncached.seconds - compile_run.seconds,
                cached.seconds,
            )
        )
        testbed.close()
    return points


def format_precompilation(points: list[PrecompilePoint]) -> str:
    """Render the precompilation experiment."""
    lines = [
        "Query precompilation (paper conclusion 3)",
        f"{'R_rs':>5} {'compile ms':>11} {'execute ms':>11} "
        f"{'cached ms':>10} {'speedup':>8}",
    ]
    for point in points:
        lines.append(
            f"{point.relevant_rules:>5} "
            f"{point.compile_seconds * 1000:>11.2f} "
            f"{point.execute_seconds * 1000:>11.2f} "
            f"{point.cached_total_seconds * 1000:>10.2f} "
            f"{point.speedup:>7.1f}x"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Rewriting methods: magic vs supplementary vs counting on same-generation
# ---------------------------------------------------------------------------

SG_RULES = (
    "sg(X, Y) :- flat(X, Y)."
    "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)."
)


@dataclass(frozen=True)
class RewritePoint:
    """One strategy's time and answer count on the shared sg workload."""

    method: str
    seconds: float
    answers: int


def _layered_genealogy(generations: int, width: int):
    """up/down/flat fact lists for a layered same-generation workload.

    ``width`` disjoint ancestral lines meet only through ``flat`` at the top
    generation, so a query bound to one person is highly selective: the
    relevant portion is that person's line plus the single flat hop — while
    the full ``sg`` relation spans every pair of lines at every generation.
    """
    up, down, flat = [], [], []
    for generation in range(1, generations):
        for index in range(width):
            child = f"g{generation}_{index}"
            parent = f"g{generation - 1}_{index}"
            up.append((child, parent))
            down.append((parent, child))
    for i in range(width):
        for j in range(width):
            if i != j:
                flat.append((f"g0_{i}", f"g0_{j}"))
    return up, down, flat


def run_rewrite_methods(
    generations: int = 7, width: int = 6, repetitions: int = 3
) -> list[RewritePoint]:
    """Compare plain / magic / supplementary / counting on one sg query."""
    up, down, flat = _layered_genealogy(generations, width)
    testbed = Testbed()
    testbed.define(SG_RULES)
    for name, rows in (("up", up), ("down", down), ("flat", flat)):
        testbed.define_base_relation(name, ("TEXT", "TEXT"))
        testbed.load_facts(name, rows)
    person = f"g{generations - 1}_0"
    query = f"?- sg('{person}', Y)."

    points: list[RewritePoint] = []
    for method, optimize in (
        ("plain", False),
        ("magic", True),
        ("supplementary", "supplementary"),
    ):
        compiled = testbed.compile_query(
            query, optimize=optimize, strategy=LfpStrategy.SEMINAIVE
        )
        run = timed(
            lambda: compiled.program.execute(testbed.database, testbed.catalog),
            repetitions,
        )
        points.append(RewritePoint(method, run.seconds, len(run.value.rows)))

    form = recognize_counting_form(parse_program(SG_RULES), "sg")
    assert form is not None
    tables = {"up": "e_up", "down": "e_down", "flat": "e_flat"}

    def run_counting():
        return evaluate_counting(testbed.database, form, tables, person)

    run = timed(run_counting, repetitions)
    points.append(RewritePoint("counting", run.seconds, len(run.value.rows)))
    testbed.close()
    return points


def format_rewrite_methods(points: list[RewritePoint]) -> str:
    """Render the rewriting-method ablation."""
    baseline = next(p for p in points if p.method == "plain")
    lines = [
        "Rule rewriting strategies on same-generation (section 2.5)",
        f"{'method':<14} {'t_e ms':>9} {'answers':>8} {'vs plain':>9}",
    ]
    for point in points:
        speedup = baseline.seconds / point.seconds if point.seconds else 0.0
        lines.append(
            f"{point.method:<14} {point.seconds * 1000:>9.2f} "
            f"{point.answers:>8} {speedup:>8.1f}x"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Simulated parallel LFP evaluation (paper conclusions 5 and 7)
# ---------------------------------------------------------------------------


def run_parallel_simulation(
    depth: int = 8,
    worker_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    strategy=None,
    rule_count: int = 8,
):
    """Trace a real LFP evaluation, then replay it at several parallelisms.

    The workload is a clique with ``rule_count`` recursive equations — the
    union of reachability over ``rule_count`` disjoint edge relations::

        p(X, Y) :- e_i(X, Y).                (i = 1..rule_count)
        p(X, Y) :- e_i(X, Z), p(Z, Y).

    Conclusion 7a's parallelism is *across* the equations of one iteration,
    so a single-equation clique (plain ancestor) has nothing to schedule;
    this union clique offers ``rule_count``-way RHS parallelism.

    Returns the list of :class:`repro.runtime.parallel_sim.SimulatedSchedule`
    objects, one per worker count.
    """
    from ..runtime.parallel_sim import lfp_phase_events, sweep_workers

    strategy = strategy or LfpStrategy.SEMINAIVE
    testbed = Testbed()
    rules = []
    for index in range(rule_count):
        rules.append(f"p(X, Y) :- edge{index}(X, Y).")
        rules.append(f"p(X, Y) :- edge{index}(X, Z), p(Z, Y).")
    testbed.define("\n".join(rules))
    for index in range(rule_count):
        relation = full_binary_trees(1, depth, prefix=f"w{index}_")
        testbed.define_base_relation(f"edge{index}", ("TEXT", "TEXT"))
        testbed.load_facts(f"edge{index}", relation.edges)
    compiled = testbed.compile_query(
        f"?- p('{tree_node('w0_', 1)}', Y).", optimize=False, strategy=strategy
    )
    testbed.database.statistics.enable_trace()
    testbed.database.statistics.reset()
    compiled.program.execute(testbed.database, testbed.catalog)
    trace = lfp_phase_events(testbed.database.statistics.trace)
    testbed.close()
    return sweep_workers(trace, worker_counts)


def format_parallel_simulation(schedules) -> str:
    """Render the parallel-LFP simulation sweep."""
    baseline = schedules[0]
    lines = [
        "Simulated parallel LFP evaluation (conclusions 5 and 7)",
        f"{'workers':>8} {'wall ms':>9} {'speedup':>8} {'serial share':>13}",
    ]
    for schedule in schedules:
        lines.append(
            f"{schedule.workers:>8} {schedule.total_seconds * 1000:>9.2f} "
            f"{schedule.speedup_over(baseline):>7.2f}x "
            f"{schedule.serial_fraction * 100:>12.1f}%"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fast-path layer A/B: statement cache + iteration batching + delta indexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FastPathPoint:
    """One selectivity level measured with the fast path off and on.

    The slow run reproduces the seed behaviour (no statement cache,
    per-iteration CREATE/DROP, autocommit, no derived-relation indexes); the
    fast run enables the whole fast-path layer.  Both must compute identical
    answers — the benchmark asserts it.
    """

    label: str
    selectivity: float
    relevant_facts: int
    total_facts: int
    slow_seconds: float
    fast_seconds: float
    answers: int
    iterations: int
    cache_hits: int
    cache_misses: int

    @property
    def speedup(self) -> float:
        """Slow-path over fast-path wall time."""
        return self.slow_seconds / self.fast_seconds if self.fast_seconds else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Statement-cache hit rate during the fast run."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


def run_fastpath_ab(
    depth: int = 9,
    levels: tuple[int, ...] | None = None,
    repetitions: int = 3,
    strategy=None,
) -> list[FastPathPoint]:
    """A/B the fast-path layer on the fig-12 semi-naive ancestor workload.

    For each query-root level of the full binary tree, executes the compiled
    ancestor program with the fast path off (statement cache disabled — the
    seed configuration) and on (cache + batching + scratch reuse + index
    advice), reporting median wall times, the cache counters, and the
    answers (asserted identical).
    """
    from ..dbms.engine import DEFAULT_STATEMENT_CACHE_SIZE
    from ..runtime.context import FastPathConfig
    from ..workloads.queries import ANCESTOR_RULES, load_parent_relation, selectivity_of

    strategy = strategy or LfpStrategy.SEMINAIVE
    if levels is None:
        levels = tuple(range(1, depth))
    relation = full_binary_trees(1, depth)

    points: list[FastPathPoint] = []
    for level in levels:
        root = tree_node("t", first_node_at_level(level))
        query = ancestor_query(root)
        sample = selectivity_of(relation, root)

        results: dict[str, tuple[float, object, int, int]] = {}
        for mode in ("slow", "fast"):
            fast = mode == "fast"
            testbed = Testbed(
                TestbedConfig(
                    statement_cache_size=DEFAULT_STATEMENT_CACHE_SIZE if fast else 0
                )
            )
            testbed.define(ANCESTOR_RULES)
            load_parent_relation(testbed, relation)
            fastpath = FastPathConfig.enabled() if fast else None
            compiled = testbed.compile_query(
                query, optimize=False, strategy=strategy
            )
            testbed.database.statistics.reset()
            run = timed(
                lambda: compiled.program.execute(
                    testbed.database, testbed.catalog, fastpath=fastpath
                ),
                repetitions,
            )
            total = testbed.database.statistics.total
            results[mode] = (
                run.seconds,
                run.value,
                total.cache_hits,
                total.cache_misses,
            )
            testbed.close()

        slow_seconds, slow_exec, __, __ = results["slow"]
        fast_seconds, fast_exec, hits, misses = results["fast"]
        if set(slow_exec.rows) != set(fast_exec.rows):
            raise AssertionError(
                f"fast path changed the answers at level {level}"
            )
        points.append(
            FastPathPoint(
                f"level-{level}",
                sample.selectivity,
                sample.relevant_facts,
                sample.total_facts,
                slow_seconds,
                fast_seconds,
                len(fast_exec.rows),
                fast_exec.total_iterations,
                hits,
                misses,
            )
        )
    return points
