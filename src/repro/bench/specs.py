"""Every paper figure and table, and every extension bench, as a spec.

Each :class:`~repro.bench.experiment.Experiment` below is one artifact of
the paper's section 5.3 (Tests 1-9: Figures 7-15, Tables 4, 5 and 8) or
one extension experiment.  ``benchmarks/`` runs them at full size and
asserts the paper's shapes; wall-clock numbers differ from 1988 hardware
by orders of magnitude, so the *shapes* — what is flat, what grows, which
lever wins, where the crossover sits — are the reproduction targets.
:data:`SPECS` registers every spec by name.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import ExitStack
from typing import Any, Mapping

from ..dbms.backends import available_backends
from ..km.config import TestbedConfig
from ..km.session import Testbed
from ..runtime.context import PHASE_RHS_EVAL, PHASE_TEMP_TABLES, PHASE_TERMINATION
from ..runtime.parallel_sim import lfp_phase_events, simulate_parallel_lfp
from ..runtime.program import LfpStrategy
from ..server.cache import VersionedResultCache
from ..server.loadgen import run_loadgen
from ..workloads.queries import (
    ANCESTOR_RULES,
    ancestor_query,
    expected_ancestor_answers,
    load_parent_relation,
    selectivity_of,
)
from ..workloads.relations import (
    GeneratedRelation,
    first_node_at_level,
    full_binary_trees,
    lists,
    random_cyclic_graph,
    random_dag,
    tree_node,
)
from ..workloads.rulegen import make_rule_base
from ..workloads.served import (
    DEFAULT_TREES,
    ancestor_query_mix,
    cluster_partition_spec,
    cluster_query_mix,
    seed_cluster,
    seed_dkb,
    wait_for_replicas,
)
from .experiment import Experiment, Sample, timed

Params = Mapping[str, Any]

TABLE4_COMPONENTS = ("setup", "extract", "readdict", "semantic", "eorder", "gencompile")
LFP_PHASES = (PHASE_TEMP_TABLES, PHASE_RHS_EVAL, PHASE_TERMINATION)
UPDATE_COMPONENTS = ("extract", "closure", "typecheck", "store")


def _root(level: int) -> str:
    return tree_node("t", first_node_at_level(level))


def _levels(params: Params) -> list[dict]:
    return [{"level": level} for level in range(1, params["depth"])]


class _Ancestor:
    """An ancestor testbed over one relation; each plan is compiled once."""

    def __init__(
        self, relation: GeneratedRelation, stack: ExitStack, backend: str = "sqlite"
    ):
        self.relation = relation
        self.testbed = stack.enter_context(Testbed(TestbedConfig(backend=backend)))
        self.testbed.define(ANCESTOR_RULES)
        load_parent_relation(self.testbed, relation)
        self._plans: dict[tuple, Any] = {}

    def execute(self, root: str, strategy: LfpStrategy, optimize: bool):
        """Seconds and result of one run, statistics reset just before it."""
        key = (root, strategy, optimize)
        if key not in self._plans:
            self._plans[key] = self.testbed.compile_query(
                ancestor_query(root), optimize=optimize, strategy=strategy
            ).program
        program = self._plans[key]
        self.testbed.database.statistics.reset()
        return timed(lambda: program.execute(self.testbed.database, self.testbed.catalog))

    def sample(
        self, root: str, strategy: LfpStrategy, optimize: bool, split: bool = False
    ) -> Sample:
        """One timed run; ``split`` adds Figure 14's magic/modified LFP times."""
        seconds, execution = self.execute(root, strategy, optimize)
        timings = {"seconds": seconds}
        if split:
            nodes = execution.node_seconds
            timings["magic_lfp"] = sum(s for n, s in nodes.items() if n.startswith("m_"))
            timings["modified_lfp"] = sum(
                s for n, s in nodes.items() if not n.startswith("m_")
            )
        where = selectivity_of(self.relation, root)
        return Sample(
            timings,
            {
                "selectivity": where.selectivity,
                "relevant_facts": where.relevant_facts,
                "total_facts": where.total_facts,
                "iterations": execution.total_iterations,
                "answers": len(execution.rows),
                **_statements(self.testbed),
                "path": next(iter(execution.strategy_by_clique.values()), strategy.value),
            },
            answers=frozenset(execution.rows),
        )


def _statements(testbed: Testbed) -> dict[str, int]:
    total = testbed.database.statistics.total
    return {
        "statements": total.statements,
        "ddl": total.by_kind.get("CREATE", 0) + total.by_kind.get("DROP", 0),
    }


def _trees(depths, stack: ExitStack) -> dict[int, _Ancestor]:
    return {depth: _Ancestor(full_binary_trees(1, depth), stack) for depth in set(depths)}


# ---------------------------------------------------------------------------
# Tests 1-3 (Figures 7-10, Table 4): rule extraction, dictionary, compilation
# ---------------------------------------------------------------------------


def _rule_base_testbed(total_rules: int, relevant_rules: int, compiled: bool = True):
    rule_base = make_rule_base(total_rules, relevant_rules)
    testbed = Testbed(TestbedConfig(compiled_rule_storage=compiled))
    for base in rule_base.base_predicates:
        testbed.define_base_relation(base, ("TEXT", "TEXT"))
    testbed.workspace.add_clauses(rule_base.program.rules)
    testbed.update_stored_dkb()
    return testbed, rule_base


def _rule_bases(pairs, stack: ExitStack) -> dict[tuple[int, int], tuple]:
    built = {}
    for total, relevant in pairs:
        testbed, rule_base = _rule_base_testbed(total, relevant)
        stack.callback(testbed.close)
        built[total, relevant] = (testbed, rule_base)
    return built


def _grid(total_key: str, relevant_key: str) -> dict:
    """A sweep over every (R_rs, R_s) pair, R_rs-major, and a build of one
    rule-base testbed per pair."""

    def sweep(params: Params) -> list[dict]:
        return [
            {relevant_key: relevant, total_key: total}
            for relevant in params[relevant_key]
            for total in params[total_key]
        ]

    def build(params: Params, stack: ExitStack):
        return _rule_bases([(p[total_key], p[relevant_key]) for p in sweep(params)], stack)

    return {"sweep": sweep, "build": build}


def _measure_extract(built, point: Params, lever: str) -> Sample:
    testbed, rule_base = built[point["total_rules"], point["relevant_rules"]]
    root = rule_base.query_module.root_predicate
    testbed.database.statistics.reset()
    seconds, extracted = timed(lambda: testbed.stored.extract_relevant_rules([root]))
    return Sample(
        {"seconds": seconds},
        {**_statements(testbed), "rules_extracted": len(extracted.rules)},
    )


EXTRACT = Experiment(
    name="fig07_08_extract",
    title="Figures 7 and 8 — t_extract vs stored rules R_s and relevant rules R_rs",
    params={"total_rules": (60, 120, 240, 480), "relevant_rules": (1, 7, 20)},
    quick={"total_rules": (10, 20), "relevant_rules": (1, 3)},
    **_grid("total_rules", "relevant_rules"),
    levers=("extract",),
    measure=_measure_extract,
    repetitions=5,
)


def _measure_readdict(built, point: Params, lever: str) -> Sample:
    testbed, rule_base = built[point["total_predicates"], point["relevant_predicates"]]
    wanted = list(rule_base.query_module.predicates)
    testbed.database.statistics.reset()
    seconds, __ = timed(lambda: testbed.stored.derived_types_of(wanted))
    return Sample({"seconds": seconds}, _statements(testbed))


DICTIONARY = Experiment(
    name="fig09_10_dict",
    title="Figures 9 and 10 — t_readdict vs stored predicates P_s and relevant P_rs",
    params={"total_predicates": (50, 100, 200, 400), "relevant_predicates": (1, 4, 10)},
    quick={"total_predicates": (10, 20), "relevant_predicates": (1, 2)},
    **_grid("total_predicates", "relevant_predicates"),
    levers=("readdict",),
    measure=_measure_readdict,
    repetitions=5,
)


def _measure_compile(built, point: Params, lever: str) -> Sample:
    testbed, rule_base = built[point["total_rules"], point["relevant_rules"]]
    # The paper's code generator: no one-statement plan to build, no rewrite
    # decision to make; Table 4 has no optimize component.
    result = testbed.compile_query(
        rule_base.query_text(), optimize=False, strategy=LfpStrategy.SEMINAIVE
    )
    return Sample(
        {name: result.timings[name] for name in TABLE4_COMPONENTS}, dict(result.counts)
    )


TABLE4 = Experiment(
    name="table4_compile",
    title="Table 4 — compilation time breakdown",
    params={"relevant_rules": (1, 7, 20), "total_rules": 189},
    quick={"relevant_rules": (1, 3), "total_rules": 10},
    sweep=lambda p: [
        {"relevant_rules": r, "total_rules": p["total_rules"]} for r in p["relevant_rules"]
    ],
    build=lambda p, stack: _rule_bases(
        [(p["total_rules"], r) for r in p["relevant_rules"]], stack
    ),
    levers=("compile",),
    measure=_measure_compile,
    parts=TABLE4_COMPONENTS,
    repetitions=5,
)


# ---------------------------------------------------------------------------
# Tests 4-7 (Figures 11-14, Table 5): execution over tree workloads
# ---------------------------------------------------------------------------


def _fig11_sweep(params: Params) -> list[dict]:
    """(a) D fixed, D_rel varied by root level; (b) D_rel fixed, D grows."""
    fixed_d = [
        {"series": "fixed_d", "depth": params["depth"], "level": level}
        for level in range(1, params["depth"])
    ]
    fixed_rel = [
        {"series": "fixed_rel", "depth": depth, "level": depth - params["fixed_subtree_depth"] + 1}
        for depth in params["growing_depths"]
    ]
    return fixed_d + fixed_rel


FIG11 = Experiment(
    name="fig11_relevant_fraction",
    title="Figure 11 — t_e vs relevant-fact fraction D_rel/D (semi-naive, plain)",
    params={"depth": 9, "growing_depths": (6, 7, 8, 9), "fixed_subtree_depth": 5},
    quick={"depth": 5, "growing_depths": (4, 5), "fixed_subtree_depth": 3},
    sweep=_fig11_sweep,
    build=lambda p, stack: _trees([p["depth"], *p["growing_depths"]], stack),
    levers=("seminaive",),
    measure=lambda trees, point, lever: trees[point["depth"]].sample(
        _root(point["level"]), LfpStrategy.SEMINAIVE, False
    ),
)

FIG12 = Experiment(
    name="fig12_naive_vs_seminaive",
    title="Figure 12 — naive vs semi-naive LFP evaluation",
    params={"depth": 9},
    quick={"depth": 4},
    sweep=_levels,
    build=lambda p, stack: _Ancestor(full_binary_trees(1, p["depth"]), stack),
    levers=("naive", "seminaive"),
    baseline="seminaive",
    measure=lambda tree, point, lever: tree.sample(
        _root(point["level"]), LfpStrategy(lever), False
    ),
    plot=("selectivity", "seconds"),
)


def _measure_phases(tree: _Ancestor, point: Params, lever: str) -> Sample:
    __, execution = tree.execute(_root(point["level"]), LfpStrategy(lever), False)
    phases = tree.testbed.database.statistics.phases()
    return Sample(
        {name: phases[name].seconds if name in phases else 0.0 for name in LFP_PHASES},
        {**_statements(tree.testbed), "answers": len(execution.rows)},
        answers=frozenset(execution.rows),
    )


TABLE5 = Experiment(
    name="table5_lfp_phases",
    title="Table 5 — LFP evaluation phase breakdown",
    params={"depth": 9, "root_level": 1},
    quick={"depth": 4},
    sweep=lambda p: [{"level": p["root_level"]}],
    build=FIG12.build,
    levers=("naive", "seminaive"),
    measure=_measure_phases,
    parts=LFP_PHASES,
    repetitions=1,
)

FIG13 = Experiment(
    name="fig13_14_magic",
    title="Figures 13 and 14 — magic sets vs selectivity, magic vs modified rules",
    params={"depth": 9, "strategies": ("seminaive", "naive")},
    quick={"depth": 4},
    sweep=lambda p: [
        {"strategy": strategy, "level": level}
        for strategy in p["strategies"]
        for level in range(1, p["depth"])
    ],
    build=FIG12.build,
    levers=("plain", "magic"),
    baseline="plain",
    measure=lambda tree, point, lever: tree.sample(
        _root(point["level"]), LfpStrategy(point["strategy"]), lever == "magic", split=True
    ),
    plot=("selectivity", "seconds"),
)

BLOWUP = Experiment(
    name="fig13_blowup",
    title="Test 7 — a near-leaf query on a large relation, plain vs magic",
    params={"depth": 13},
    quick={"depth": 5},
    sweep=lambda p: [{"level": p["depth"] - 2}],
    build=FIG12.build,
    levers=("plain", "magic"),
    baseline="plain",
    measure=lambda tree, point, lever: tree.sample(
        _root(point["level"]), LfpStrategy.SEMINAIVE, lever == "magic"
    ),
    repetitions=1,
)


# ---------------------------------------------------------------------------
# Tests 8 and 9 (Figure 15, Table 8): stored-D/KB update times
# ---------------------------------------------------------------------------


def _measure_update(stored_rules: int, workspace_rules: int, compiled: bool) -> Sample:
    testbed, rule_base = _rule_base_testbed(stored_rules, min(20, stored_rules), compiled)
    with testbed:
        # A fresh module of R_w rules whose terminal rule references a stored
        # predicate: the update must then extract the stored rules relevant
        # to the workspace rules, as the paper's update algorithm prescribes.
        new_module = make_rule_base(workspace_rules, workspace_rules)
        hook = rule_base.query_module.root_predicate
        for base in new_module.base_predicates:
            testbed.define_base_relation(f"w_{base}", ("TEXT", "TEXT"))
        terminal = f"wp_q_{workspace_rules - 1}(X, Y) :- w_base_q(X, Y)."
        for clause in new_module.program.rules:
            text = str(clause).replace("base_", "w_base_").replace("p_", "wp_")
            if text == terminal:
                text = f"wp_q_{workspace_rules - 1}(X, Y) :- {hook}(X, Y)."
            testbed.workspace.define(text)
        testbed.database.statistics.reset()
        result = testbed.update_stored_dkb()
        timings = result.timings
        return Sample(
            {"seconds": timings.total, **{name: timings[name] for name in UPDATE_COMPONENTS}},
            {**_statements(testbed), "new_rules": len(result.new_rules)},
        )


FIG15 = Experiment(
    name="fig15_update",
    title="Figure 15 — update time t_u vs stored rules R_s",
    params={"stored_rules": (9, 45, 90, 135, 189), "workspace_rules": 1},
    quick={"stored_rules": (9, 20)},
    sweep=lambda p: [
        {"stored_rules": r, "workspace_rules": p["workspace_rules"]} for r in p["stored_rules"]
    ],
    levers=("compiled", "source_only"),
    baseline="source_only",
    measure=lambda __, point, lever: _measure_update(
        point["stored_rules"], point["workspace_rules"], lever == "compiled"
    ),
    parts=UPDATE_COMPONENTS,
    plot=("stored_rules", "seconds"),
)

TABLE8 = Experiment(
    name="table8_update",
    title="Table 8 — update time breakdown",
    params={"configurations": ((36, 189), (1, 189))},
    quick={"configurations": ((2, 20), (1, 20))},
    sweep=lambda p: [
        {"workspace_rules": w, "stored_rules": s} for w, s in p["configurations"]
    ],
    levers=("compiled",),
    measure=lambda __, point, lever: _measure_update(
        point["stored_rules"], point["workspace_rules"], True
    ),
    parts=UPDATE_COMPONENTS,
)


# ---------------------------------------------------------------------------
# Extensions: in-DBMS operators, rewriting, parallel LFP, relation types
# ---------------------------------------------------------------------------

#: Conclusion 8's specialised operator: the descendants of one source as a
#: unary recursive CTE over the edge relation, nothing else in the statement.
_SOURCE_CLOSURE_SQL = (
    'WITH RECURSIVE reach(c0) AS (SELECT c1 FROM "e_parent" WHERE c0 = ? '
    'UNION SELECT e.c1 FROM "e_parent" AS e, reach WHERE e.c0 = reach.c0) '
    "SELECT c0 FROM reach"
)


def _measure_operator(tree: _Ancestor, point: Params, lever: str) -> Sample:
    if lever != "tc_operator":
        return tree.sample(point["root"], LfpStrategy(lever), False)
    database = tree.testbed.database
    database.statistics.reset()
    seconds, rows = timed(lambda: database.execute(_SOURCE_CLOSURE_SQL, (point["root"],)))
    return Sample(
        {"seconds": seconds},
        {"answers": len(rows), **_statements(tree.testbed)},
        answers=frozenset(map(tuple, rows)),
    )


ABLATION = Experiment(
    name="ablation_lfp_operator",
    title="Ablation — application-program LFP vs in-DBMS operators",
    params={"depth": 10},
    quick={"depth": 4},
    sweep=lambda p: [{"root": tree_node("t", 1)}],
    build=FIG12.build,
    levers=("naive", "seminaive", "lfp_cte", "tc_operator"),
    baseline="seminaive",
    measure=_measure_operator,
)

SG_RULES = "sg(X, Y) :- flat(X, Y).sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)."

_REWRITES = {
    "plain": {"optimize": False, "strategy": LfpStrategy.SEMINAIVE},
    "magic": {"optimize": True, "strategy": LfpStrategy.SEMINAIVE},
    "default": {},
}


def _genealogy(params: Params, stack: ExitStack) -> dict:
    """A layered same-generation workload: ``width`` disjoint lines meeting
    only through ``flat`` at the top generation, so a query bound to one
    person is highly selective while the full ``sg`` spans every pair of
    lines at every generation."""
    generations, width = params["generations"], params["width"]
    up = [
        (f"g{g}_{i}", f"g{g - 1}_{i}") for g in range(1, generations) for i in range(width)
    ]
    flat = [(f"g0_{i}", f"g0_{j}") for i in range(width) for j in range(width) if i != j]
    testbed = stack.enter_context(Testbed())
    testbed.define(SG_RULES)
    for name, rows in (("up", up), ("down", [(p, c) for c, p in up]), ("flat", flat)):
        testbed.define_base_relation(name, ("TEXT", "TEXT"))
        testbed.load_facts(name, rows)
    query = f"?- sg('g{generations - 1}_0', Y)."
    return {
        "testbed": testbed,
        "plans": {
            lever: testbed.compile_query(query, **options).program
            for lever, options in _REWRITES.items()
        },
    }


def _measure_rewrite(inputs: dict, point: Params, lever: str) -> Sample:
    testbed, program = inputs["testbed"], inputs["plans"][lever]
    testbed.database.statistics.reset()
    seconds, execution = timed(lambda: program.execute(testbed.database, testbed.catalog))
    return Sample(
        {"seconds": seconds},
        {"answers": len(execution.rows), **_statements(testbed)},
        answers=frozenset(execution.rows),
    )


REWRITE = Experiment(
    name="rewrite_methods",
    title="Magic sets rewriting on same-generation (section 2.5)",
    params={"generations": 7, "width": 6},
    quick={"generations": 3, "width": 2},
    sweep=lambda p: [{"generations": p["generations"], "width": p["width"]}],
    build=_genealogy,
    levers=tuple(_REWRITES),
    baseline="plain",
    measure=_measure_rewrite,
)


def _lfp_trace(params: Params, strategy: LfpStrategy) -> list:
    """The LFP statements of one traced run over a ``rule_count``-equation
    clique — reachability over that many disjoint edge relations, so each
    iteration offers ``rule_count``-way RHS parallelism (conclusion 7a)."""
    rules = []
    with Testbed() as testbed:
        for index in range(params["rule_count"]):
            rules.append(f"p(X, Y) :- edge{index}(X, Y).")
            rules.append(f"p(X, Y) :- edge{index}(X, Z), p(Z, Y).")
        testbed.define("\n".join(rules))
        for index in range(params["rule_count"]):
            relation = full_binary_trees(1, params["depth"], prefix=f"w{index}_")
            testbed.define_base_relation(f"edge{index}", ("TEXT", "TEXT"))
            testbed.load_facts(f"edge{index}", relation.edges)
        compiled = testbed.compile_query(
            f"?- p('{tree_node('w0_', 1)}', Y).", optimize=False, strategy=strategy
        )
        tracer = testbed.enable_tracing(capture_plans=False)
        compiled.program.execute(testbed.database, testbed.catalog)
        return lfp_phase_events(tracer.statements)


def _measure_schedule(traces: dict, point: Params, lever: str) -> Sample:
    schedule = simulate_parallel_lfp(traces[lever], point["workers"])
    serial = simulate_parallel_lfp(traces[lever], 1)
    return Sample(
        {"seconds": schedule.total_seconds},
        {"speedup": schedule.speedup_over(serial), "serial_share": schedule.serial_fraction},
    )


PARALLEL = Experiment(
    name="parallel_lfp",
    title="Simulated parallel LFP evaluation (conclusions 5 and 7)",
    params={"depth": 8, "workers": (1, 2, 4, 8, 16), "rule_count": 8},
    quick={"depth": 4, "workers": (1, 2), "rule_count": 2},
    sweep=lambda p: [{"workers": k} for k in p["workers"]],
    build=lambda p, stack: {
        s.value: _lfp_trace(p, s) for s in (LfpStrategy.SEMINAIVE, LfpStrategy.NAIVE)
    },
    levers=("seminaive", "naive"),
    measure=_measure_schedule,
    repetitions=1,
)

#: §5.2's four relation types, each with a selective root, so magic sets is
#: on the winning side of its crossover for every type.
RELATION_TYPES = {
    "list": (lambda: lists(4, 64), "l0_0"),
    "tree": (lambda: full_binary_trees(1, 8), "t4"),
    "dag": (lambda: random_dag(300, 8, fan_out=2, seed=3), "g0_0"),
    "cyclic": (lambda: random_cyclic_graph(260, 8, cycle_count=6, seed=3), "c0_0"),
}


def _relation_types(params: Params, stack: ExitStack) -> dict:
    built = {}
    for name in params["types"]:
        make, root = RELATION_TYPES[name]
        graph = _Ancestor(make(), stack)
        built[name] = (graph, root, frozenset(expected_ancestor_answers(graph.relation, root)))
    return built


def _measure_relation_type(built: dict, point: Params, lever: str) -> Sample:
    graph, root, expected = built[point["type"]]
    # Iteration counts are the loop's: pin the semi-naive strategy.
    sample = graph.sample(root, LfpStrategy.SEMINAIVE, lever == "magic")
    if sample.answers != expected:
        raise AssertionError(f"{lever} ancestor({root}, Y) differs from reachability")
    return sample


WORKLOAD_TYPES = Experiment(
    name="workload_types",
    title="Ancestor over the section 5.2 relation types",
    params={"types": tuple(RELATION_TYPES)},
    quick={"types": ("list", "tree")},
    sweep=lambda p: [{"type": name} for name in p["types"]],
    build=_relation_types,
    levers=("plain", "magic"),
    baseline="plain",
    measure=_measure_relation_type,
)


# ---------------------------------------------------------------------------
# Extensions: view maintenance, CTE vs loop, engine vs engine
# ---------------------------------------------------------------------------


def _materialized(params: Params, stack: ExitStack) -> dict:
    """Two identical testbeds with ``ancestor`` materialized: one maintained
    incrementally, one recomputed."""
    built: dict[str, Any] = {"depth": params["depth"], "applied": {}}
    for lever in ("incremental", "recompute"):
        testbed = stack.enter_context(Testbed())
        testbed.define(ANCESTOR_RULES)
        load_parent_relation(testbed, full_binary_trees(1, params["depth"]))
        testbed.materialize("ancestor")
        built[lever] = testbed
    return built


def _measure_maintenance(built: dict, point: Params, lever: str) -> Sample:
    """Apply the lever's next batch of ``batch_size`` new child edges.

    Child names are unique per batch and parents cycle through the whole
    tree; both levers receive the same batches in the same order.
    """
    size, testbed = point["batch_size"], built[lever]
    serial = built["applied"].get((lever, size), 0)
    built["applied"][lever, size] = serial + 1
    node_count = 2 ** built["depth"] - 1
    batch = [
        (tree_node("t", (i % node_count) + 1), f"x_{size}_{serial}_{i}") for i in range(size)
    ]
    if lever == "incremental":
        seconds, __ = timed(lambda: testbed.load_facts("parent", batch))
    else:

        def recompute() -> None:
            testbed.catalog.insert_facts("parent", batch)
            testbed.refresh("ancestor")

        seconds, __ = timed(recompute)
    return Sample(
        {"seconds": seconds},
        {
            "tuples_added": testbed.maintenance_log[-1].tuples_added,
            "view_rows": testbed.views.tuple_count("ancestor"),
            "base_rows": testbed.catalog.fact_count("parent"),
        },
        answers=frozenset(testbed.database.fetch_all("mv_ancestor")),
    )


MAINTENANCE = Experiment(
    name="maintenance",
    title="View maintenance — delta propagation vs full recompute (ancestor)",
    params={"depth": 9, "batch_sizes": (1, 4, 16, 64, 256)},
    quick={"depth": 4, "batch_sizes": (1, 2)},
    sweep=lambda p: [{"batch_size": size} for size in p["batch_sizes"]],
    build=_materialized,
    levers=("incremental", "recompute"),
    baseline="recompute",
    measure=_measure_maintenance,
)

CTE_AB = Experiment(
    name="cte_ab",
    title="CTE A/B — semi-naive loop vs one WITH RECURSIVE statement",
    params={"depth": 9, "levels": (1, 2, 4, 6, 8)},
    quick={"depth": 4, "levels": (1, 2)},
    sweep=lambda p: [{"level": level} for level in p["levels"]],
    build=FIG12.build,
    levers=("seminaive", "lfp_cte"),
    baseline="lfp_cte",
    measure=FIG12.measure,
)


def _engines(params: Params, stack: ExitStack) -> dict[str, _Ancestor]:
    relation = full_binary_trees(1, params["depth"])
    return {name: _Ancestor(relation, stack, backend=name) for name in available_backends()}


ENGINES = Experiment(
    name="engines",
    title="Engine A/B — identical semi-naive workload per SQL backend",
    params={"depth": 9, "levels": (1, 2, 4, 6, 8)},
    quick={"depth": 4, "levels": (1, 2)},
    sweep=CTE_AB.sweep,
    build=_engines,
    levers=("sqlite",),
    measure=lambda engines, point, lever: engines[lever].sample(
        _root(point["level"]), LfpStrategy.SEMINAIVE, False
    ),
)


# ---------------------------------------------------------------------------
# Extensions: the query server and the sharded cluster
# ---------------------------------------------------------------------------


def _loadgen_sample(report) -> Sample:
    return Sample(
        {f"latency_{q}": report.latency_ms[q] / 1000.0 for q in ("p50", "p95", "p99")},
        {
            "clients": report.clients,
            "requests": report.requests,
            "errors": report.errors,
            "busy": report.busy,
            "hit_fraction": report.cache_hit_fraction,
            "rps": report.throughput,
        },
    )


def _seeded(params: Params, stack: ExitStack) -> dict:
    scratch = stack.enter_context(tempfile.TemporaryDirectory(prefix="repro_srv_"))
    path = os.path.join(scratch, "dkb.sqlite")
    seed_dkb(path, params["depth"])
    return {**params, "path": path}


def _measure_served(inputs: dict, point: Params, lever: str) -> Sample:
    from ..server.service import DkbServer, ServerConfig

    config = ServerConfig(
        path=inputs["path"],
        readers=point["readers"],
        cache_size=inputs["cache_size"],
        session_timeout=inputs["duration"] + 30.0,
    )
    with DkbServer(config) as server:
        host, port = server.address
        return _loadgen_sample(
            run_loadgen(
                host,
                port,
                ancestor_query_mix(inputs["depth"], inputs["roots"]),
                clients=inputs["clients"],
                duration=inputs["duration"],
                think_time=inputs["think_time"],
            )
        )


SERVER_SCALING = Experiment(
    name="server_scaling",
    title="Server throughput scaling (fig-12 ancestor mix, closed-loop clients)",
    params={
        "depth": 7, "readers": (1, 8), "clients": 8, "duration": 4.0,
        "think_time": 0.02, "roots": 5, "cache_size": 256,
    },
    quick={"depth": 4, "readers": (1, 2), "clients": 2, "duration": 0.5},
    sweep=lambda p: [{"readers": readers} for readers in p["readers"]],
    build=_seeded,
    levers=("served",),
    measure=_measure_served,
    repetitions=1,
)


def _cache_pool(params: Params, stack: ExitStack) -> dict:
    from ..server.pool import SessionPool

    inputs = _seeded(params, stack)
    cache = VersionedResultCache(64)
    pool = stack.enter_context(SessionPool(inputs["path"], readers=1, cache=cache))
    return {"pool": pool, "cache": cache, "query": ancestor_query_mix(params["depth"], 1)[0]}


def _measure_cache(inputs: dict, point: Params, lever: str) -> Sample:
    """A cold read (compile + evaluate) or a warm one (a result-cache hit).

    A cold read first bumps the D/KB version with a one-row insert/delete
    pair, so it really recomputes whichever lever ran before it.
    """
    pool, cache = inputs["pool"], inputs["cache"]
    if lever == "cold":
        pool.load_facts("parent", [("zz_inval", "zz_leaf")])
        pool.delete_facts("parent", [("zz_inval", "zz_leaf")])
    result = pool.query(inputs["query"])
    if result.cached != (lever == "warm"):
        raise AssertionError(
            f"a {lever} read was a cache {'hit' if result.cached else 'miss'}"
        )
    return Sample(
        {"seconds": result.seconds},
        {"hits": cache.hits, "misses": cache.misses, "answers": len(result.rows)},
        answers=frozenset(result.rows),
    )


SERVER_CACHE = Experiment(
    name="server_cache",
    title="Result cache A/B (one session, served seconds)",
    params={"depth": 8},
    quick={"depth": 4},
    sweep=lambda p: [{"depth": p["depth"]}],
    build=_cache_pool,
    levers=("cold", "warm"),
    baseline="cold",
    measure=_measure_cache,
    repetitions=5,
)


def _measure_cluster(inputs: dict, point: Params, lever: str) -> Sample:
    from ..cluster.router import ReadPolicy
    from ..cluster.supervisor import ClusterConfig, ClusterSupervisor

    shards, replicas, clients = point["shards"], inputs["replicas"], inputs["clients"]
    config = ClusterConfig(
        spec=cluster_partition_spec(shards),
        data_dir=os.path.join(inputs["scratch"], f"s{shards}"),
        replicas=replicas,
        read_policy=ReadPolicy(prefer_replica=replicas > 0),
        # Size connection capacity to the population: the router's pool
        # opens a backend connection per concurrent request, up to
        # ``readers`` per shard, and this experiment measures evaluation
        # capacity, not waits for a connection.
        readers=clients + 4,
        max_waiters=4 * clients,
        request_timeout=inputs["duration"] + 30.0,
    )
    with ClusterSupervisor(config) as cluster:
        with cluster.client() as seed_client:
            seed_cluster(seed_client, inputs["depth"], inputs["trees"])
            if replicas:
                wait_for_replicas(seed_client)
        # Thread clients: forked loadgen processes compete with the shard
        # processes for cores on small boxes, compressing the very
        # difference being measured; the closed-loop clients spend their
        # lives blocked on socket reads anyway.
        return _loadgen_sample(
            run_loadgen(
                queries=cluster_query_mix(inputs["trees"], inputs["roots_per_tree"]),
                clients=clients,
                duration=inputs["duration"],
                think_time=inputs["think_time"],
                targets=[cluster.address],
                use_processes=False,
            )
        )


CLUSTER_SCALING = Experiment(
    name="cluster_scaling",
    title="Cluster read scaling (uncached pinned ancestor reads, closed-loop clients)",
    params={
        "shards": (1, 4), "depth": 8, "replicas": 0, "clients": 32, "duration": 5.0,
        "think_time": 0.02, "trees": DEFAULT_TREES, "roots_per_tree": 3,
    },
    quick={"shards": (1, 2), "depth": 3, "clients": 2, "duration": 0.5},
    sweep=lambda p: [{"shards": shards} for shards in p["shards"]],
    build=lambda p, stack: {
        **p, "scratch": stack.enter_context(tempfile.TemporaryDirectory(prefix="repro_cluster_"))
    },
    levers=("routed",),
    measure=_measure_cluster,
    repetitions=1,
)


SPECS: dict[str, Experiment] = {
    spec.name: spec
    for spec in (
        EXTRACT, DICTIONARY, TABLE4, FIG11, FIG12, TABLE5, FIG13, BLOWUP, FIG15,
        TABLE8, ABLATION, REWRITE, PARALLEL, WORKLOAD_TYPES, MAINTENANCE, CTE_AB,
        ENGINES, SERVER_SCALING, SERVER_CACHE, CLUSTER_SCALING,
    )
}
