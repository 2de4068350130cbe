"""The Code Generator (paper section 3.2.6).

The paper's Knowledge Manager emits a C program segment that "loads certain
data structures in the object program with query specific information": per
predicate node the name, schema, and the SQL query per defining rule; per
clique node the same, distinguishing exit from recursive rules.  The segment
is then compiled and linked with the run-time library.

Here the program fragment is Python source built the same way: a ``SPEC``
literal carrying exactly those data structures (including the generated SQL
text per rule, for inspection), followed by a call to the run-time library's
:func:`link_program`.  The Query Compiler byte-compiles and executes the
fragment — the measured ``t_gencompile`` of Test 3.  The SPEC is written on
one line with ``repr``; :func:`pretty_fragment` lays it out for a reader
(``Testbed.explain``), at display time only.  For the default
``LFP_CTE`` strategy, linking also builds the plan's one-statement form
(:func:`repro.runtime.lfp_cte.fuse_program`), once per compiled plan.
"""

from __future__ import annotations

import ast
import pprint
from typing import Mapping, Sequence

from ..datalog.clauses import Query
from ..datalog.evalgraph import EvaluationNode, PredicateNode
from ..datalog.magic import QuerySeed
from ..datalog.parser import parse_clause, parse_query
from ..datalog.pcg import Clique
from ..datalog.terms import Variable
from ..dbms.sqlgen import compile_rule_body
from ..errors import CodeGenerationError
from ..runtime.lfp_cte import fuse_program
from ..runtime.program import LfpStrategy, QueryProgram

FRAGMENT_HEADER = (
    "# Program fragment generated by the Knowledge Manager.\n"
    "# Executing this fragment links the query-specific data structures\n"
    "# below with the run-time library, yielding the executable PROGRAM.\n"
)


def generate_fragment(
    query: Query,
    order: Sequence[EvaluationNode],
    types: Mapping[str, tuple[str, ...]],
    base_predicates: frozenset[str],
    strategy: LfpStrategy,
    optimized: bool,
    goal_rewrites: Mapping[str, str],
    seed_facts: Mapping[str, tuple[tuple, ...]],
    query_seed: QuerySeed | None = None,
    factored: bool = False,
) -> str:
    """Emit the Python source of the query's program fragment.

    The fragment records a rewritten query's seed as goal positions
    (``query_seed``), never as values: the program serves every query of
    its form.  ``factored`` marks a factored rewrite, whose answer reads
    the goal relation's free positions only.
    """
    nodes = []
    for node in order:
        if isinstance(node, Clique):
            nodes.append(
                {
                    "kind": "clique",
                    "predicates": sorted(node.predicates),
                    "exit_rules": [str(c) for c in node.exit_rules],
                    "recursive_rules": [str(c) for c in node.recursive_rules],
                    "sql": {str(c): compile_rule_body(c).sql for c in node.rules},
                }
            )
        elif isinstance(node, PredicateNode):
            nodes.append(
                {
                    "kind": "predicate",
                    "predicate": node.predicate,
                    "rules": [str(c) for c in node.rules],
                    "sql": {str(c): compile_rule_body(c).sql for c in node.rules},
                }
            )
        else:  # pragma: no cover - the node union is closed
            raise CodeGenerationError(f"unknown evaluation node {node!r}")

    spec = {
        "query": str(query),
        "answer_variables": [v.name for v in query.answer_variables],
        "nodes": nodes,
        "types": {p: tuple(ts) for p, ts in sorted(types.items())},
        "base_predicates": sorted(base_predicates),
        "strategy": strategy.value,
        "optimized": optimized,
        "goal_rewrites": dict(goal_rewrites),
        "seed_facts": {p: tuple(rows) for p, rows in sorted(seed_facts.items())},
        "query_seed": (
            None
            if query_seed is None
            else (query_seed.predicate, query_seed.positions)
        ),
        "factored": factored,
    }
    return _fragment(repr(spec))


def _fragment(literal: str) -> str:
    return f"{FRAGMENT_HEADER}SPEC = {literal}\n\nPROGRAM = link_program(SPEC)\n"


def pretty_fragment(source: str) -> str:
    """The fragment ``source`` with its one-line SPEC pretty-printed.

    ``eval`` of either literal gives the same dict: only the layout differs.
    """
    prefix = "SPEC = "
    line = next(line for line in source.splitlines() if line.startswith(prefix))
    spec = ast.literal_eval(line[len(prefix) :])
    return _fragment(pprint.pformat(spec, width=88, sort_dicts=False))


def link_program(spec: Mapping) -> QueryProgram:
    """Rebuild an executable :class:`QueryProgram` from a fragment's SPEC.

    This is the run-time library's linking entry point: the fragment calls it
    with the literal data structures the Code Generator emitted.
    """
    order: list[EvaluationNode] = []
    for node_spec in spec["nodes"]:
        if node_spec["kind"] == "clique":
            order.append(
                Clique(
                    frozenset(node_spec["predicates"]),
                    tuple(parse_clause(t) for t in node_spec["recursive_rules"]),
                    tuple(parse_clause(t) for t in node_spec["exit_rules"]),
                )
            )
        elif node_spec["kind"] == "predicate":
            order.append(
                PredicateNode(
                    node_spec["predicate"],
                    tuple(parse_clause(t) for t in node_spec["rules"]),
                )
            )
        else:
            raise CodeGenerationError(
                f"unknown node kind {node_spec['kind']!r} in fragment spec"
            )

    parsed = parse_query(spec["query"])
    query = Query(
        parsed.goals,
        tuple(Variable(name) for name in spec["answer_variables"]),
    )
    types = {p: tuple(ts) for p, ts in spec["types"].items()}
    base_predicates = frozenset(spec["base_predicates"])
    strategy = LfpStrategy(spec["strategy"])
    goal_rewrites = dict(spec["goal_rewrites"])
    seed_facts = {
        p: tuple(map(tuple, rows)) for p, rows in spec["seed_facts"].items()
    }
    seed = spec.get("query_seed")
    query_seed = None if seed is None else QuerySeed(seed[0], tuple(seed[1]))
    # The one-statement form is built here, once per compiled plan: the
    # plan cache rebinds the program to each query of its form and carries
    # the statement and the answer SELECT along: a query only supplies its
    # constants.
    fused = (
        fuse_program(
            query, order, types, base_predicates, seed_facts, goal_rewrites, query_seed
        )
        if strategy is LfpStrategy.LFP_CTE
        else None
    )
    return QueryProgram(
        query=query,
        order=tuple(order),
        types=types,
        base_predicates=base_predicates,
        strategy=strategy,
        optimized=spec["optimized"],
        goal_rewrites=goal_rewrites,
        seed_facts=seed_facts,
        query_seed=query_seed,
        factored=spec["factored"],
        fused=fused,
    )


def compile_and_link(source: str) -> QueryProgram:
    """Byte-compile a fragment and execute it against the run-time library.

    This is the testbed's stand-in for "compile the code fragment and link it
    with the run time library" — the dominant, compiler-dependent component
    the paper calls out in Test 3.

    Raises:
        CodeGenerationError: when the fragment does not produce a PROGRAM.
    """
    code = compile(source, "<km-fragment>", "exec")
    namespace: dict = {"link_program": link_program}
    exec(code, namespace)  # noqa: S102 - fragment is generated by us
    program = namespace.get("PROGRAM")
    if not isinstance(program, QueryProgram):
        raise CodeGenerationError("fragment did not define PROGRAM")
    return program
