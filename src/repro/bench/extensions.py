"""Experiment runners for the extension features.

These cover the parts of the paper that its testbed left unimplemented and
this reproduction built out: the generalized magic sets rewriting of
section 2.5 against the plain plan, and simulated parallel LFP evaluation
(conclusions 5 and 7).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..km.session import Testbed
from ..runtime.program import LfpStrategy
from ..workloads.relations import full_binary_trees, tree_node
from .timing import timed

# ---------------------------------------------------------------------------
# Rewriting: plain vs the magic loop vs the default plan on same-generation
# ---------------------------------------------------------------------------

SG_RULES = (
    "sg(X, Y) :- flat(X, Y)."
    "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)."
)


@dataclass(frozen=True)
class RewritePoint:
    """One plan's time, answer count and warm per-call statement counts."""

    method: str
    seconds: float
    answers: int
    statements: int
    ddl: int


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
    """Compare three plans for one bound sg query.

    ``plain`` is the unrewritten semi-naive loop, ``magic`` the magic-sets
    rewrite on the same loop, and ``default`` what ``Testbed.query`` runs
    unasked (``optimize="auto"``, the default strategy).  Each point's
    counts are those of one warm call, taken after the timed ones.
    """
    up, down, flat = _layered_genealogy(generations, width)
    testbed = Testbed()
    testbed.define(SG_RULES)
    for name, rows in (("up", up), ("down", down), ("flat", flat)):
        testbed.define_base_relation(name, ("TEXT", "TEXT"))
        testbed.load_facts(name, rows)
    query = f"?- sg('g{generations - 1}_0', Y)."
    statistics = testbed.database.statistics

    points: list[RewritePoint] = []
    for method, options in (
        ("plain", {"optimize": False, "strategy": LfpStrategy.SEMINAIVE}),
        ("magic", {"optimize": True, "strategy": LfpStrategy.SEMINAIVE}),
        ("default", {}),
    ):
        compiled = testbed.compile_query(query, **options)

        def execute():
            return compiled.program.execute(testbed.database, testbed.catalog)

        run = timed(execute, repetitions)
        statistics.reset()
        execute()
        total = statistics.total
        points.append(
            RewritePoint(
                method,
                run.seconds,
                len(run.value.rows),
                total.statements,
                total.by_kind.get("CREATE", 0) + total.by_kind.get("DROP", 0),
            )
        )
    testbed.close()
    return points


def format_rewrite_methods(points: list[RewritePoint]) -> str:
    """Render the rewriting comparison."""
    baseline = next(p for p in points if p.method == "plain")
    lines = [
        "Magic sets rewriting on same-generation (section 2.5)",
        f"{'method':<9} {'t_e ms':>9} {'answers':>8} {'stmts':>6} "
        f"{'ddl':>4} {'vs plain':>9}",
    ]
    for point in points:
        speedup = baseline.seconds / point.seconds if point.seconds else 0.0
        lines.append(
            f"{point.method:<9} {point.seconds * 1000:>9.2f} "
            f"{point.answers:>8} {point.statements:>6} {point.ddl:>4} "
            f"{speedup:>8.1f}x"
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
    tracer = testbed.enable_tracing(capture_plans=False)
    compiled.program.execute(testbed.database, testbed.catalog)
    trace = lfp_phase_events(tracer.statements)
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
