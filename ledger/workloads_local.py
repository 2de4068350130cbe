"""The three single-node workloads: an in-process ``Testbed``, one thread.

Library defaults everywhere — no strategy, optimize, fast-path, cache or
precompile knob is set — so a later PR that promotes a fast path to the
default, or lets a planner choose, shows up here as a gain.
"""

from __future__ import annotations

import os
import shutil
from typing import Any, Iterator

from repro import Testbed, TestbedConfig

from . import inputs, oracle
from .workload import (
    OpResult, Workload, chunks, directory_bytes, finished, high_water_kb, start_op, stop_op,
)

TEXT2 = ("TEXT", "TEXT")


class LocalWorkload(Workload):
    """Shared plumbing: the testbed lives in the generator's process."""

    testbed: Testbed

    def teardown(self) -> dict[str, Any]:
        self.testbed.close()
        return {
            "peak_rss_kb": high_water_kb(),
            "file_bytes": directory_bytes(self.workdir),
        }

    def _query_op(self, connection: int, kind: str, text: str, expected: frozenset) -> OpResult:
        op_id = self.new_op_id(connection)
        token, started = start_op(op_id)
        try:
            rows = self.testbed.query(text).rows
        except Exception:
            return finished(op_id, kind, started, stop_op(token, started), False)
        latency = stop_op(token, started)
        return finished(op_id, kind, started, latency, oracle.rows_match(rows, expected))


class CompileRulebase(LocalWorkload):
    """The paper's Table 4 regime: a large stored rule base, tiny relations."""

    name = "compile_rulebase"
    timed_op = "Testbed.query(text), bound goal on the root of a 40-rule chain"

    QUERY_MODULES = 8
    FILLER_MODULES = 2
    CHAIN = 40
    CONSTANTS = 8
    ROUND = 16
    ROUNDS = 16  # 256 ops: each of the 64 texts 4 times

    def setup(self) -> None:
        rng = inputs.rng_for(self.seed, self.name)
        tag = inputs.seed_tag(self.seed)
        constants = [f"{tag}c{i}" for i in range(self.CONSTANTS)]
        rules: list[str] = []
        relations: dict[str, list[tuple[str, str]]] = {}
        for module in range(self.QUERY_MODULES + self.FILLER_MODULES):
            base = f"q{module}_b"
            relations[base] = inputs.permutation_rows(constants, rng)
            rules.extend(inputs.chain_module(f"q{module}", self.CHAIN, base))
        program = "\n".join(rules)
        self.queries: list[tuple[str, frozenset]] = []
        for module in range(self.QUERY_MODULES):
            step = dict(relations[f"q{module}_b"])
            for constant in constants:
                image = oracle.compose([step] * self.CHAIN, constant)
                self.queries.append(
                    (
                        f"?- q{module}_p0({inputs.quoted(constant)}, Y).",
                        frozenset({(image,)}),
                    )
                )
        self.digest = inputs.digest(program, relations, [q for q, _ in self.queries])
        self._rng = rng

        self.testbed = Testbed()
        for base, rows in relations.items():
            self.testbed.define_base_relation(base, TEXT2)
            self.testbed.load_facts(base, rows)
        self.testbed.define(program)
        self.testbed.update_stored_dkb()
        self.stored_rules = self.testbed.stored_rule_count
        self.warm_up()

    def rounds(self, connection: int) -> Iterator[list]:
        while True:
            yield from chunks(inputs.shuffled(self.queries, self._rng), self.ROUND)

    def execute(self, connection: int, op: Any) -> OpResult:
        text, expected = op
        return self._query_op(connection, "query", text, expected)


class LfpClosure(LocalWorkload):
    """The paper's four graph families, closed under ``ancestor``."""

    name = "lfp_closure"
    timed_op = "Testbed.query(text): unbound, source-bound or leaf-bound closure"

    TREE_DEPTH = 8
    LISTS, LIST_LENGTH = 12, 20
    DAG_LAYERS, DAG_WIDTH, DAG_FANOUT = 6, 32, 2
    CYCLES, CYCLE_LENGTH, CYCLE_CHORDS = 4, 16, 4
    SG_DEPTH = 5
    ROUNDS = 45  # 585 ops

    def setup(self) -> None:
        rng = inputs.rng_for(self.seed, self.name)
        tag = inputs.seed_tag(self.seed)
        graphs = {
            "tree": inputs.binary_tree(f"{tag}t", self.TREE_DEPTH),
            "list": inputs.lists(f"{tag}l", self.LISTS, self.LIST_LENGTH),
            "dag": inputs.layered_dag(
                f"{tag}d", self.DAG_LAYERS, self.DAG_WIDTH, self.DAG_FANOUT, rng
            ),
            "cyc": inputs.chorded_cycles(
                f"{tag}c", self.CYCLES, self.CYCLE_LENGTH, self.CYCLE_CHORDS, rng
            ),
        }
        parents = inputs.binary_tree(f"{tag}g", self.SG_DEPTH)
        program = "".join(
            inputs.ancestor_rules(f"{family}_anc", f"{family}_e") for family in graphs
        ) + inputs.same_generation_rules("sg", "sg_par")
        relations = {f"{family}_e": inputs.shuffled(edges, rng) for family, edges in graphs.items()}
        relations["sg_par"] = inputs.shuffled(parents, rng)

        # Per family: the unbound closure, plus the bound constants that
        # reach the most (sources) and the least (leaf level: selective).
        self.unbound: list[tuple[str, str, frozenset]] = []
        self.bound: dict[str, dict[str, list[tuple[str, frozenset]]]] = {}
        for family, edges in graphs.items():
            graph = oracle.adjacency(edges)
            nodes = sorted({node for edge in edges for node in edge})
            reach = {node: oracle.reachable(graph, node) for node in nodes}
            self.unbound.append(
                (
                    family,
                    f"?- {family}_anc(X, Y).",
                    frozenset((x, y) for x in nodes for y in reach[x]),
                )
            )
            targets = {target for _, target in edges}
            sources = [node for node in nodes if node not in targets] or nodes
            deepest = min(len(reach[node]) for node in nodes)
            leaves = [node for node in nodes if len(reach[node]) == deepest]
            self.bound[family] = {
                kind: [
                    (
                        f"?- {family}_anc({inputs.quoted(node)}, Y).",
                        frozenset((y,) for y in reach[node]),
                    )
                    for node in inputs.shuffled(chosen, rng)[:16]
                ]
                for kind, chosen in (("source", sources), ("leaf", leaves))
            }
        generation = oracle.same_generation(parents)
        leaf_level = inputs.tree_level(f"{tag}g", self.SG_DEPTH)
        self.sg_queries = [
            (
                f"?- sg({inputs.quoted(node)}, Y).",
                frozenset((y,) for x, y in generation if x == node),
            )
            for node in inputs.shuffled(leaf_level, rng)[:16]
        ]
        self.digest = inputs.digest(program, relations)
        self._rng = rng

        self.testbed = Testbed()
        for name, rows in relations.items():
            self.testbed.define_base_relation(name, TEXT2)
            self.testbed.load_facts(name, rows)
        self.testbed.define(program)
        self.warm_up()

    def rounds(self, connection: int) -> Iterator[list]:
        """One round = every family unbound, source-bound and leaf-bound,
        plus one leaf-bound same-generation query, in seeded order."""
        rng = self._rng
        while True:
            ops = [(f"{family}.unbound", text, expected) for family, text, expected in self.unbound]
            for family, kinds in self.bound.items():
                for kind, queries in kinds.items():
                    ops.append((f"{family}.{kind}", *rng.choice(queries)))
            ops.append(("sg.leaf", *rng.choice(self.sg_queries)))
            rng.shuffle(ops)
            yield ops

    def execute(self, connection: int, op: Any) -> OpResult:
        kind, text, expected = op
        return self._query_op(connection, kind, text, expected)


class KbUpdate(LocalWorkload):
    """Stored-D/KB update (paper section 4.3) on a file-backed testbed.

    One round is a *lap*: ``LAP`` updates that grow the stored rule base
    from R_s = 189 by four rules each.  Every lap starts from a fresh copy
    of the R_s = 189 database (copied and reopened outside any timed
    interval), so every lap — and every run, however fast the build —
    covers the same range of R_s.
    """

    name = "kb_update"
    timed_op = "Testbed.define(4-rule module) + Testbed.update_stored_dkb()"

    MODULES = 9
    CHAIN = 21
    CONSTANTS = 8
    LAP = 400    # ops per lap: R_s 189 -> 1789
    PROVE = 10   # every 10th op is followed by an untimed proving query
    ROUNDS = 6    # 2400 ops

    def setup(self) -> None:
        rng = inputs.rng_for(self.seed, self.name)
        tag = inputs.seed_tag(self.seed)
        self.constants = [f"{tag}c{i}" for i in range(self.CONSTANTS)]
        rules: list[str] = []
        self.steps: dict[int, dict[str, str]] = {}
        relations: dict[str, list[tuple[str, str]]] = {}
        for module in range(self.MODULES):
            base = f"k{module}_b"
            relations[base] = inputs.permutation_rows(self.constants, rng)
            self.steps[module] = dict(relations[base])
            rules.extend(inputs.chain_module(f"k{module}", self.CHAIN, base))
        program = "\n".join(rules)
        self.digest = inputs.digest(program, relations)
        self._rng = rng

        self._base = os.path.join(self.workdir, "base")
        self._lap = os.path.join(self.workdir, "lap")
        os.makedirs(self._base)
        with Testbed(TestbedConfig(path=os.path.join(self._base, "kb.sqlite"))) as testbed:
            for base, rows in relations.items():
                testbed.define_base_relation(base, TEXT2)
                testbed.load_facts(base, rows)
            testbed.define(program)
            testbed.update_stored_dkb()
            self.stored_rules = testbed.stored_rule_count
        self._reset()
        self.warm_up()

    def _reset(self) -> None:
        """Back to R_s = 189: reopen on a fresh copy of the base database."""
        if os.path.isdir(self._lap):
            self.testbed.close()
            shutil.rmtree(self._lap)
        shutil.copytree(self._base, self._lap)
        self.testbed = Testbed(TestbedConfig(path=os.path.join(self._lap, "kb.sqlite")))

    def warm_up(self) -> None:
        """The first ops of a lap, discarded (the measured laps each reset)."""
        for op in next(self.rounds(0))[: 2 * self.PROVE]:
            self.execute(0, op)

    def teardown(self) -> dict[str, Any]:
        report = super().teardown()
        report["file_bytes"] = directory_bytes(self._lap)  # one lap's growth, not the copies
        return report

    def rounds(self, connection: int) -> Iterator[list]:
        """Each op hooks a fresh module onto a seeded stored predicate; the
        first op of a lap resets the rule base first."""
        rng = self._rng
        while True:
            yield [
                (
                    position + 1,
                    rng.randrange(self.MODULES),
                    rng.randrange(self.CHAIN),
                    rng.choice(self.constants),
                    position == 0,
                    position % self.PROVE == self.PROVE - 1,
                )
                for position in range(self.LAP)
            ]

    def execute(self, connection: int, op: Any) -> OpResult:
        module, stored, depth, constant, reset, prove = op
        if reset:
            self._reset()
        name = f"u{module}"
        text = (
            f"{name}_a(X, Y) :- {name}_b(X, Z), k{stored}_b(Z, Y).\n"
            f"{name}_b(X, Y) :- {name}_c(X, Y).\n"
            f"{name}_c(X, Y) :- {name}_d(X, Y).\n"
            f"{name}_d(X, Y) :- k{stored}_p{depth}(X, Y).\n"
        )
        op_id = self.new_op_id(connection)
        token, started = start_op(op_id)
        try:
            self.testbed.define(text)
            result = self.testbed.update_stored_dkb()
        except Exception:
            return finished(op_id, "update", started, stop_op(token, started), False)
        latency = stop_op(token, started)
        ok = len(result.new_rules) == 4
        if ok and prove:
            # Untimed: the rules just stored must answer, through the
            # stored predicate they hook, what the oracle composes.
            image = oracle.compose(
                [self.steps[stored]] * (self.CHAIN - depth + 1), constant
            )
            try:
                rows = self.testbed.query(
                    f"?- {name}_a({inputs.quoted(constant)}, Y)."
                ).rows
                ok = oracle.rows_match(rows, frozenset({(image,)}))
            except Exception:
                ok = False
        return finished(op_id, "update", started, latency, ok)
