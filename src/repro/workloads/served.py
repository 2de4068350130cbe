"""The ancestor workload as a served D/KB: seeders and query mixes.

``serve --demo-depth`` and ``cluster --demo-depth`` seed these, and the
server and cluster benchmarks drive them: one full binary tree per D/KB
file, or disjoint trees hash-partitioned by their entity-group prefix
(``t{k}_``) across a cluster's shards, each tree shard-local.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..km.partition import PartitionSpec, TablePartition
from .queries import ANCESTOR_RULES
from .relations import full_binary_trees, tree_node

if TYPE_CHECKING:
    from ..server.client import DkbClient

#: Trees seeded by default — crc32 of ``t0..t7`` spreads them evenly over
#: both 2 and 4 shards, so every configuration holds a balanced partition.
DEFAULT_TREES = 8


def seed_dkb(path: str, depth: int) -> None:
    """Create the ancestor D/KB over one full binary tree of ``depth``."""
    from ..server.pool import SessionPool

    relation = full_binary_trees(1, depth)
    with SessionPool(path, readers=1) as pool:
        pool.define(ANCESTOR_RULES)
        pool.load_facts("parent", relation.edges)


def ancestor_query_mix(depth: int, roots: int = 5) -> list[str]:
    """Bound ancestor queries over the first ``roots`` heap-indexed nodes."""
    limit = max(1, min(roots, 2 ** (depth - 1) - 1))
    return [
        f"?- ancestor('{tree_node('t', index)}', Y)."
        for index in range(1, limit + 1)
    ]


def cluster_partition_spec(shards: int) -> PartitionSpec:
    """The ancestor workload's partition: trees are entity groups.

    ``parent`` is hash-partitioned on its first column's ``t{k}_`` prefix,
    and ``ancestor`` is declared routable on argument 0 — sound because a
    tree's closure never leaves its shard.
    """
    return PartitionSpec(
        shards=shards,
        tables={"parent": TablePartition(0)},
        routes={"ancestor": 0},
        key_delimiter="_",
    )


def seed_cluster(
    client: "DkbClient", depth: int, trees: int = DEFAULT_TREES
) -> int:
    """Define the ancestor rules and load the trees through the router.

    Returns the number of trees seeded.
    """
    client.define(ANCESTOR_RULES)
    relation = full_binary_trees(trees, depth)
    client.insert("parent", [list(edge) for edge in relation.edges])
    return trees


def wait_for_replicas(client: "DkbClient", timeout: float = 30.0) -> None:
    """Block until every replica's watermark reaches its primary's version.

    Replicas boot from a pre-seed snapshot; a read routed to one before
    its first post-seed pull fails with an undefined-predicate error
    under an unbounded-staleness policy.  Waiting on the watermarks makes
    a freshly seeded cluster immediately queryable on every backend.

    Raises:
        TimeoutError: a replica is still behind after ``timeout`` seconds;
            the message names each lagging shard.
    """
    deadline = time.monotonic() + timeout
    while True:
        shards = client.stats()["stats"]["shards"]
        lagging = sorted(
            str(name)
            for name, shard in shards.items()
            if any(
                replica.get("watermark") is None
                # The router's stats walk could not read a busy or
                # unreachable primary: its version is unknown.
                or shard["primary"] is None
                or replica["watermark"] < shard["primary"]["pool"]["version"]
                for replica in shard["replicas"]
            )
        )
        if not lagging:
            return
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"replicas of shard(s) {', '.join(lagging)} did not reach "
                f"their primary's version within {timeout:g} s"
            )
        time.sleep(0.1)


def cluster_query_mix(
    trees: int = DEFAULT_TREES, roots_per_tree: int = 3
) -> list[dict]:
    """Bound (pinned) uncached ancestor queries over every tree.

    Roots cycle through the top heap indices of each tree, so the mix
    spreads over all shards while every individual query stays
    single-shard.  ``use_cache: False`` makes each request an actual
    evaluation — the quantity that scales with backend processes.
    """
    return [
        {"q": f"?- ancestor('t{tree}_{root}', Y).", "use_cache": False}
        for tree in range(trees)
        for root in range(1, roots_per_tree + 1)
    ]
