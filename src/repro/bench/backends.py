"""Backend and strategy A/B runners for the pluggable-DBMS layer.

Two experiments over the fig-12 ancestor mix (query roots at each level of
a full binary tree):

* **CTE vs loop** — the same clique evaluated by the semi-naive iteration
  loop and by the one-statement recursive-CTE strategy
  (:mod:`repro.runtime.lfp_cte`), answers asserted identical.  This is the
  paper's "LFP operator inside the DBMS" argument taken to its modern
  conclusion: the whole fixpoint as one ``WITH RECURSIVE`` statement.
* **Engine vs engine** — the same workload and strategy on every backend
  whose driver is importable (:func:`repro.dbms.backends.available_backends`),
  answers asserted identical across engines.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dbms.backends import available_backends
from ..km.config import TestbedConfig
from ..km.session import Testbed
from ..runtime.program import LfpStrategy
from ..workloads.queries import (
    ANCESTOR_RULES,
    ancestor_query,
    load_parent_relation,
    selectivity_of,
)
from ..workloads.relations import (
    first_node_at_level,
    full_binary_trees,
    tree_node,
)
from .timing import timed


@dataclass(frozen=True)
class CtePoint:
    """One selectivity level measured with the loop and with the CTE."""

    label: str
    selectivity: float
    relevant_facts: int
    total_facts: int
    loop_seconds: float
    cte_seconds: float
    answers: int
    loop_iterations: int
    # "lfp_cte" when the CTE run actually took the one-statement path;
    # "fallback: <reason>" would mean the workload stopped qualifying.
    cte_strategy: str

    @property
    def speedup(self) -> float:
        """Iteration-loop over recursive-CTE wall time."""
        return self.loop_seconds / self.cte_seconds if self.cte_seconds else 0.0


@dataclass(frozen=True)
class EnginePoint:
    """One (backend, selectivity level) execution measurement."""

    backend: str
    label: str
    selectivity: float
    seconds: float
    answers: int
    strategy: str


def run_cte_ab(
    depth: int = 9,
    levels: "tuple[int, ...] | None" = None,
    repetitions: int = 3,
    backend: str = "sqlite",
) -> list[CtePoint]:
    """A/B the recursive-CTE strategy against the semi-naive loop.

    For each query-root level of the full binary tree, executes the compiled
    ancestor program under ``LfpStrategy.SEMINAIVE`` and under
    ``LfpStrategy.LFP_CTE`` on the same testbed, asserting identical answer
    sets.  The per-point ``cte_strategy`` records whether the CTE run really
    compiled to one statement (the ancestor clique is linear and
    negation-free, so it always should).
    """
    if levels is None:
        levels = tuple(range(1, depth))
    relation = full_binary_trees(1, depth)
    testbed = Testbed(TestbedConfig(backend=backend))
    testbed.define(ANCESTOR_RULES)
    load_parent_relation(testbed, relation)

    points: list[CtePoint] = []
    for level in levels:
        root = tree_node("t", first_node_at_level(level))
        sample = selectivity_of(relation, root)
        runs: dict[LfpStrategy, object] = {}
        seconds: dict[LfpStrategy, float] = {}
        for strategy in (LfpStrategy.SEMINAIVE, LfpStrategy.LFP_CTE):
            compiled = testbed.compile_query(
                ancestor_query(root), optimize=False, strategy=strategy
            )
            run = timed(
                lambda: compiled.program.execute(
                    testbed.database, testbed.catalog
                ),
                repetitions,
            )
            runs[strategy] = run.value
            seconds[strategy] = run.seconds
        loop_exec = runs[LfpStrategy.SEMINAIVE]
        cte_exec = runs[LfpStrategy.LFP_CTE]
        if set(loop_exec.rows) != set(cte_exec.rows):
            raise AssertionError(
                f"recursive-CTE strategy changed the answers at level {level}"
            )
        chosen = next(iter(cte_exec.strategy_by_clique.values()), "lfp_cte")
        points.append(
            CtePoint(
                f"level-{level}",
                sample.selectivity,
                sample.relevant_facts,
                sample.total_facts,
                seconds[LfpStrategy.SEMINAIVE],
                seconds[LfpStrategy.LFP_CTE],
                len(cte_exec.rows),
                loop_exec.total_iterations,
                chosen,
            )
        )
    testbed.close()
    return points


def run_engine_ab(
    depth: int = 9,
    levels: "tuple[int, ...] | None" = None,
    repetitions: int = 3,
    strategy: "LfpStrategy | None" = None,
    backends: "tuple[str, ...] | None" = None,
) -> list[EnginePoint]:
    """The fig-12 ancestor mix on every importable backend.

    Runs the same workload (same tree, same query roots, same strategy) on
    each backend and asserts every engine computes the same answer set per
    level.  ``backends`` defaults to whatever is importable, so the runner
    degrades to a single-engine sweep when the optional DuckDB package is
    absent.
    """
    strategy = strategy or LfpStrategy.SEMINAIVE
    if levels is None:
        levels = tuple(range(1, depth))
    if backends is None:
        backends = available_backends()
    relation = full_binary_trees(1, depth)

    points: list[EnginePoint] = []
    answers_by_level: dict[int, set] = {}
    for name in backends:
        testbed = Testbed(TestbedConfig(backend=name))
        testbed.define(ANCESTOR_RULES)
        load_parent_relation(testbed, relation)
        for level in levels:
            root = tree_node("t", first_node_at_level(level))
            sample = selectivity_of(relation, root)
            compiled = testbed.compile_query(
                ancestor_query(root), optimize=False, strategy=strategy
            )
            run = timed(
                lambda: compiled.program.execute(
                    testbed.database, testbed.catalog
                ),
                repetitions,
            )
            rows = set(run.value.rows)
            expected = answers_by_level.setdefault(level, rows)
            if rows != expected:
                raise AssertionError(
                    f"backend {name!r} disagrees on the answers at "
                    f"level {level}"
                )
            points.append(
                EnginePoint(
                    name,
                    f"level-{level}",
                    sample.selectivity,
                    run.seconds,
                    len(rows),
                    strategy.value,
                )
            )
        testbed.close()
    return points
