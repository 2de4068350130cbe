"""Shared fixtures for the server suite: seeded D/KB files, pools, servers."""

from __future__ import annotations

import os

import pytest

from repro.server import SessionPool, VersionedResultCache
from repro.server.service import DkbServer, ServerConfig
from repro.workloads.queries import ANCESTOR_RULES
from repro.workloads.relations import full_binary_trees

PARENT_FACTS = [
    ("john", "mary"),
    ("john", "bob"),
    ("mary", "sue"),
    ("mary", "tom"),
    ("sue", "ann"),
]


@pytest.fixture
def dkb_path(tmp_path):
    """An on-disk D/KB file seeded with the ancestor rules and facts."""
    path = os.path.join(tmp_path, "dkb.sqlite")
    with SessionPool(path, readers=1) as pool:
        pool.define(ANCESTOR_RULES)
        pool.load_facts("parent", PARENT_FACTS)
    return path


@pytest.fixture
def deep_dkb_path(tmp_path):
    """A D/KB whose unbound ancestor closure runs for tens of milliseconds
    (a depth-11 full binary tree) — far past a few-millisecond budget."""
    path = os.path.join(tmp_path, "deep.sqlite")
    with SessionPool(path, readers=1) as pool:
        pool.define(ANCESTOR_RULES)
        pool.load_facts("parent", full_binary_trees(1, 11).edges)
    return path


@pytest.fixture
def pool(dkb_path):
    """A 2-reader pool with a result cache over the seeded D/KB."""
    with SessionPool(
        dkb_path, readers=2, cache=VersionedResultCache(capacity=32)
    ) as pool:
        yield pool


@pytest.fixture
def server(dkb_path):
    """A running server (ephemeral port) over the seeded D/KB."""
    config = ServerConfig(path=dkb_path, readers=2, cache_size=32)
    with DkbServer(config) as server:
        yield server
