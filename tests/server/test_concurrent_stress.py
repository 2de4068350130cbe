"""Concurrent readers vs a live writer: every read is a consistent snapshot.

The invariant under test: while one writer applies fact batches (each an
atomic, version-bumping transaction), every concurrent read of the
``ancestor`` closure must equal the closure at *some* committed D/KB
version — never a torn mix of two.  The expected closure for every version
is computed up front from a single-threaded Python model, so each read's
``(version, rows)`` pair is checked exactly, and the final state is also
cross-checked against a fresh single-session Testbed.
"""

from __future__ import annotations

import os
import threading
import time

from repro.server import SessionPool, VersionedResultCache
from repro.workloads.queries import ANCESTOR_RULES

ALL_PAIRS = "?- ancestor(X, Y)."

READERS = 4
BATCHES = 8


def transitive_closure(edges: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """Single-threaded model of the ancestor closure."""
    children: dict[str, set[str]] = {}
    for parent, child in edges:
        children.setdefault(parent, set()).add(child)
    pairs: set[tuple[str, str]] = set()
    for root in children:
        stack = list(children[root])
        seen: set[str] = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            pairs.add((root, node))
            stack.extend(children.get(node, ()))
    return pairs


def build_batches() -> list[tuple[str, list[tuple[str, str]]]]:
    """A deterministic insert/delete schedule over a growing chain + fans."""
    batches: list[tuple[str, list[tuple[str, str]]]] = []
    for step in range(BATCHES):
        if step % 3 == 2:
            # Remove the fan added two steps ago.
            target = step - 2
            batches.append(
                ("delete", [(f"n{target}", f"fan{target}_{i}") for i in range(3)])
            )
        else:
            rows = [(f"n{step}", f"n{step + 1}")]
            rows += [(f"n{step}", f"fan{step}_{i}") for i in range(3)]
            batches.append(("insert", rows))
    return batches


def test_concurrent_readers_see_committed_snapshots(tmp_path):
    path = os.path.join(tmp_path, "stress.sqlite")
    seed = [("n0", "n1"), ("seed", "n0")]

    with SessionPool(
        path, readers=READERS, cache=VersionedResultCache(capacity=64)
    ) as pool:
        pool.define(ANCESTOR_RULES)
        pool.load_facts("parent", seed)
        base_version = pool.version()

        # The single-threaded model: expected closure at every version the
        # writer will ever commit.
        batches = build_batches()
        facts = set(seed)
        expected = {base_version: transitive_closure(facts)}
        for offset, (action, rows) in enumerate(batches, start=1):
            if action == "insert":
                facts |= set(rows)
            else:
                facts -= set(rows)
            expected[base_version + offset] = transitive_closure(facts)
        final_version = base_version + len(batches)

        failures: list[str] = []
        reads_by_version: dict[int, int] = {}
        cached_reads: list[int] = []
        done = threading.Event()

        def reader() -> None:
            while not failures and not done.is_set():
                result = pool.query(ALL_PAIRS)
                if result.cached:
                    cached_reads.append(result.version)
                want = expected.get(result.version)
                if want is None:
                    failures.append(f"unknown version {result.version}")
                elif set(result.rows) != want:
                    failures.append(
                        f"version {result.version}: got {len(result.rows)} "
                        f"rows, want {len(want)}"
                    )
                reads_by_version[result.version] = (
                    reads_by_version.get(result.version, 0) + 1
                )

        threads = [
            threading.Thread(target=reader, name=f"reader-{i}")
            for i in range(READERS)
        ]
        for thread in threads:
            thread.start()
        try:
            for action, rows in batches:
                if action == "insert":
                    pool.load_facts("parent", rows)
                else:
                    pool.delete_facts("parent", rows)
            # Let the readers serve the final version from the cache too,
            # however fast the writer was.
            deadline = time.monotonic() + 10.0
            while (
                final_version not in cached_reads
                and not failures
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=30.0)

        assert not failures, failures[:5]
        assert sum(reads_by_version.values()) > 0
        # The probe-first hit path was exercised and model-checked above.
        assert cached_reads
        assert pool.version() == final_version

        # Final state must match the model, read fresh (cache bypassed).
        final = pool.query(ALL_PAIRS, use_cache=False)
        assert final.version == final_version
        assert set(final.rows) == expected[final_version]

    # ...and match a plain single-session testbed over the same facts.
    from repro.km.session import Testbed

    with Testbed() as model:
        model.define(ANCESTOR_RULES)
        model.define_base_relation("parent", ("TEXT", "TEXT"))
        model.load_facts("parent", sorted(facts))
        single = model.query(ALL_PAIRS)
        assert set(single.rows) == expected[final_version]
