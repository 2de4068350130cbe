"""The independent oracle: expected answers computed without ``repro``.

Plain-Python graph search and function composition over the generated
inputs.  Nothing here imports the system under test, so a bug shared by
every evaluation strategy still shows up as a wrong answer.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Mapping, Sequence

Edge = tuple[str, str]


def adjacency(edges: Iterable[Edge]) -> dict[str, list[str]]:
    """Successor lists of a directed graph."""
    graph: dict[str, list[str]] = {}
    for source, target in edges:
        graph.setdefault(source, []).append(target)
    return graph


def reachable(graph: Mapping[str, Sequence[str]], source: str) -> set[str]:
    """Nodes reachable from ``source`` by one or more edges (BFS).

    ``source`` itself is included only when it lies on a cycle — exactly
    the ``Y`` values of ``ancestor(source, Y)``.
    """
    seen: set[str] = set()
    queue = deque(graph.get(source, ()))
    while queue:
        node = queue.popleft()
        if node in seen:
            continue
        seen.add(node)
        queue.extend(graph.get(node, ()))
    return seen


def closure(edges: Iterable[Edge]) -> set[Edge]:
    """The transitive closure: every ``(x, y)`` with a path x -> y."""
    graph = adjacency(edges)
    return {(source, target) for source in graph for target in reachable(graph, source)}


def compose(steps: Sequence[Mapping[Hashable, Hashable]], start: Hashable) -> Hashable:
    """Follow ``start`` through each mapping in order (chain composition).

    Returns ``None`` as soon as a step has no image for the current value.
    """
    value = start
    for step in steps:
        if value not in step:
            return None
        value = step[value]
    return value


def same_generation(parent_edges: Iterable[Edge]) -> set[Edge]:
    """``sg`` under the two classic rules, by direct fixpoint.

    ``sg(X, Y)`` when X and Y share a parent, or their parents are
    ``sg``.  ``parent_edges`` are ``(parent, child)`` pairs.
    """
    parents: dict[str, list[str]] = {}
    children: dict[str, list[str]] = {}
    for parent, child in parent_edges:
        parents.setdefault(child, []).append(parent)
        children.setdefault(parent, []).append(child)
    pairs: set[Edge] = set()
    frontier: list[Edge] = []
    for siblings in children.values():
        for left in siblings:
            for right in siblings:
                if (left, right) not in pairs:
                    pairs.add((left, right))
                    frontier.append((left, right))
    while frontier:
        upper_left, upper_right = frontier.pop()
        for left in children.get(upper_left, ()):
            for right in children.get(upper_right, ()):
                if (left, right) not in pairs:
                    pairs.add((left, right))
                    frontier.append((left, right))
    return pairs


def rows_match(rows: Iterable[Sequence], expected: "set[tuple] | frozenset[tuple]") -> bool:
    """Did the system return exactly the expected rows, each once?"""
    got = [tuple(row) for row in rows]
    return len(got) == len(expected) and set(got) == expected
