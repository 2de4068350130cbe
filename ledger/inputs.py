"""Seeded input generators: every rule base, graph and constant the
workloads use, as Datalog text and row lists.

Deliberately independent of ``repro.workloads`` so a change there cannot
silently change what the ledger measures.  The seed picks node labels,
edge wiring and constants; the *shape* of every input (node, edge, rule
and answer counts) is fixed, so two seeds do the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Sequence

Edge = tuple[str, str]


def rng_for(seed: int, *scope: object) -> random.Random:
    """A generator private to one (seed, scope) so streams never interact."""
    return random.Random(":".join(str(part) for part in (seed, *scope)))


def seed_tag(seed: int) -> str:
    """A short lowercase label derived from the seed, for node names.

    Contains no ``_`` (the cluster's entity-group delimiter).
    """
    return "s" + hashlib.sha256(str(seed).encode()).hexdigest()[:4]


def digest(*parts: Any) -> str:
    """sha256 over the canonical JSON of the generated inputs."""
    payload = json.dumps(parts, sort_keys=True, separators=(",", ":"), default=list)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- graphs -----------------------------------------------------------------


def binary_tree(prefix: str, depth: int) -> list[Edge]:
    """A full binary tree as ``(parent, child)`` edges; node ``i`` is
    ``prefix + str(i)`` in heap order (root 0, ``depth`` edge levels)."""
    nodes = 2 ** (depth + 1) - 1
    return [(f"{prefix}{(i - 1) // 2}", f"{prefix}{i}") for i in range(1, nodes)]


def tree_level(prefix: str, level: int) -> list[str]:
    """The node names of one level of :func:`binary_tree` (root = level 0)."""
    return [f"{prefix}{i}" for i in range(2 ** level - 1, 2 ** (level + 1) - 1)]


def lists(prefix: str, count: int, length: int) -> list[Edge]:
    """``count`` disjoint chains of ``length`` nodes each."""
    return [
        (f"{prefix}{c}x{i}", f"{prefix}{c}x{i + 1}")
        for c in range(count)
        for i in range(length - 1)
    ]


def layered_dag(
    prefix: str, layers: int, width: int, fanout: int, rng: random.Random
) -> list[Edge]:
    """A random DAG: ``layers`` x ``width`` nodes, every node outside the
    last layer has exactly ``fanout`` distinct successors in the next."""
    edges: list[Edge] = []
    for layer in range(layers - 1):
        for slot in range(width):
            for target in rng.sample(range(width), fanout):
                edges.append(
                    (f"{prefix}{layer}x{slot}", f"{prefix}{layer + 1}x{target}")
                )
    return edges


def chorded_cycles(
    prefix: str, count: int, length: int, chords: int, rng: random.Random
) -> list[Edge]:
    """A random cyclic graph: ``count`` disjoint directed cycles of
    ``length`` nodes, each with ``chords`` random extra edges inside it.

    Every cycle is one strongly connected component, so the closure has
    exactly ``count * length**2`` tuples whatever the seed wires.
    """
    edges: list[Edge] = []
    for c in range(count):
        ring = [(i, (i + 1) % length) for i in range(length)]
        taken = set(ring)
        while len(taken) < length + chords:
            source, target = rng.randrange(length), rng.randrange(length)
            if source != target:
                taken.add((source, target))
        edges.extend(
            (f"{prefix}{c}x{source}", f"{prefix}{c}x{target}")
            for source, target in sorted(taken)
        )
    return edges


def shuffled(items: Sequence, rng: random.Random) -> list:
    """A shuffled copy (the input order rows are loaded in is seeded)."""
    copy = list(items)
    rng.shuffle(copy)
    return copy


# -- rule bases -------------------------------------------------------------


def ancestor_rules(derived: str, edge: str) -> str:
    """The right-linear transitive-closure rule pair over ``edge``."""
    return (
        f"{derived}(X, Y) :- {edge}(X, Y).\n"
        f"{derived}(X, Y) :- {edge}(X, Z), {derived}(Z, Y).\n"
    )


def same_generation_rules(derived: str, parent: str) -> str:
    """Same-generation over ``parent(P, C)`` edges."""
    return (
        f"{derived}(X, Y) :- {parent}(P, X), {parent}(P, Y).\n"
        f"{derived}(X, Y) :- {parent}(PX, X), {derived}(PX, PY), {parent}(PY, Y).\n"
    )


def chain_module(name: str, length: int, step: str) -> list[str]:
    """``length`` chained rules: ``name_p0`` needs ``name_p1`` ... needs ``step``.

    ``name_p{i}(X, Y)`` holds when ``Y`` is ``X`` pushed through ``step``
    exactly ``length - i`` times, so the root composes ``step`` ``length``
    times.
    """
    rules = [
        f"{name}_p{i}(X, Y) :- {name}_p{i + 1}(X, Z), {step}(Z, Y)."
        for i in range(length - 1)
    ]
    rules.append(f"{name}_p{length - 1}(X, Y) :- {step}(X, Y).")
    return rules


def permutation_rows(constants: Sequence[str], rng: random.Random) -> list[Edge]:
    """A random bijection on ``constants`` as ``(from, to)`` rows."""
    images = list(constants)
    rng.shuffle(images)
    return list(zip(constants, images))


def quoted(value: str) -> str:
    """A Datalog string constant."""
    return '"' + value + '"'
