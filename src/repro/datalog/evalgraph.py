"""The evaluation graph and evaluation order list (paper section 2.3).

The evaluation graph collapses each clique of the PCG into a single node;
non-recursive derived predicates stay as their own nodes.  It is acyclic by
construction, so a topological sort yields the *evaluation order list*: the
order in which the run-time library must materialise predicates so that every
node's dependencies are computed first.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Union

from ..errors import TestbedError
from .clauses import Clause, Program
from .pcg import Clique, PredicateConnectionGraph, find_cliques


@dataclass(frozen=True)
class PredicateNode:
    """A non-recursive derived predicate with its defining rules."""

    predicate: str
    rules: tuple[Clause, ...]

    @property
    def predicates(self) -> frozenset[str]:
        """Uniform access shared with :class:`~repro.datalog.pcg.Clique`."""
        return frozenset((self.predicate,))

    def __str__(self) -> str:
        return f"PredicateNode({self.predicate}, {len(self.rules)} rules)"


EvaluationNode = Union[PredicateNode, Clique]


@dataclass(frozen=True)
class EvaluationGraph:
    """The acyclic graph of evaluation nodes with its dependency edges."""

    nodes: tuple[EvaluationNode, ...]
    edges: frozenset[tuple[int, int]]  # (dependent, dependency) by node index

    def dependencies_of(self, index: int) -> set[int]:
        """Indexes of nodes that node ``index`` depends on."""
        return {dep for node, dep in self.edges if node == index}

    def dependents_of(self, index: int) -> set[int]:
        """Indexes of nodes that depend on node ``index``."""
        return {node for node, dep in self.edges if dep == index}


def build_evaluation_graph(program: Program) -> EvaluationGraph:
    """Build the evaluation graph for the rules of ``program``.

    Nodes cover every derived predicate; base predicates are leaves of the
    computation and do not appear (they need no evaluation).
    """
    cliques = find_cliques(program)
    in_clique: dict[str, int] = {}
    nodes: list[EvaluationNode] = []
    for clique in cliques:
        index = len(nodes)
        nodes.append(clique)
        for predicate in clique.predicates:
            in_clique[predicate] = index

    derived = program.derived_predicates
    node_of: dict[str, int] = dict(in_clique)
    for predicate in sorted(derived):
        if predicate in in_clique:
            continue
        rules = tuple(c for c in program.defining(predicate) if c.is_rule)
        node_of[predicate] = len(nodes)
        nodes.append(PredicateNode(predicate, rules))

    edges: set[tuple[int, int]] = set()
    for clause in program.rules:
        head_node = node_of.get(clause.head_predicate)
        if head_node is None:
            continue
        for atom in clause.body:
            body_node = node_of.get(atom.predicate)
            if body_node is not None and body_node != head_node:
                edges.add((head_node, body_node))
    return EvaluationGraph(tuple(nodes), frozenset(edges))


def evaluation_order(graph: EvaluationGraph) -> list[EvaluationNode]:
    """Topologically sort ``graph`` into an evaluation order list.

    Dependencies come first, so the run-time library can walk the list front
    to back.  Ties are broken deterministically by node index so compiled
    programs are reproducible.

    Raises:
        TestbedError: if the graph is cyclic, which indicates a bug in
            clique construction (the evaluation graph must be a DAG).
    """
    # Kahn's algorithm; the min-heap takes the smallest ready index first.
    pending = [0] * len(graph.nodes)
    dependents: dict[int, list[int]] = {}
    for node, dependency in graph.edges:
        pending[node] += 1
        dependents.setdefault(dependency, []).append(node)
    ready = [i for i, count in enumerate(pending) if not count]
    order: list[int] = []
    while ready:
        index = heapq.heappop(ready)
        order.append(index)
        for dependent in dependents.get(index, ()):
            pending[dependent] -= 1
            if not pending[dependent]:
                heapq.heappush(ready, dependent)
    if len(order) != len(graph.nodes):
        raise TestbedError("evaluation graph is cyclic; clique detection failed")
    return [graph.nodes[i] for i in order]


def evaluation_order_list(program: Program) -> list[EvaluationNode]:
    """Convenience: evaluation order list straight from a program."""
    return evaluation_order(build_evaluation_graph(program))


def all_evaluation_orders(
    graph: EvaluationGraph, limit: int = 100
) -> list[list[EvaluationNode]]:
    """Every valid evaluation order list of ``graph`` (up to ``limit``).

    The paper (section 2.3) observes that a query generally admits more than
    one evaluation order list — e.g. (C2, C3, C1) and (C3, C2, C1) for its
    Figure 4 — and calls choosing among them an unaddressed optimization
    problem.  This enumerator makes the choice space explicit; the test
    suite uses it to verify order-independence of the results, and
    experiments can use it to measure whether the choice matters on a given
    workload.
    """
    remaining = set(range(len(graph.nodes)))
    dependencies = {i: graph.dependencies_of(i) for i in remaining}
    orders: list[list[int]] = []
    prefix: list[int] = []

    def extend() -> None:
        if len(orders) >= limit:
            return
        if not remaining:
            orders.append(list(prefix))
            return
        ready = sorted(
            i for i in remaining if not (dependencies[i] & remaining)
        )
        for index in ready:
            remaining.discard(index)
            prefix.append(index)
            extend()
            prefix.pop()
            remaining.add(index)
            if len(orders) >= limit:
                return

    extend()
    return [[graph.nodes[i] for i in order] for order in orders]


def relevant_rules(program: Program, goal_predicates: Iterable[str]) -> Program:
    """The sub-program relevant to ``goal_predicates``.

    Includes every rule whose head is a goal predicate or reachable from one
    (paper section 4.2 step 1), along with the facts defining reachable base
    predicates that are present in the program.
    """
    pcg = PredicateConnectionGraph(program.rules)
    goals = set(goal_predicates)
    wanted = set(goals)
    wanted.update(pcg.reachable_from(*goals))
    return program.restricted_to(wanted)
