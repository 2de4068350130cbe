"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.dbms.catalog import ExtensionalCatalog
from repro.dbms.engine import Database
from repro.dbms.schema import open_dkb
from repro.km.session import Testbed
from repro.workloads.queries import ANCESTOR_RULES


@pytest.fixture
def database():
    """A fresh in-memory DBMS."""
    db = Database()
    yield db
    db.close()


@pytest.fixture
def catalog(database):
    """An extensional catalog over the fresh DBMS, opened as a D/KB."""
    open_dkb(database)
    return ExtensionalCatalog(database)


@pytest.fixture
def testbed():
    """A fresh in-memory testbed session."""
    tb = Testbed()
    yield tb
    tb.close()


FAMILY_FACTS = [
    ("john", "mary"),
    ("john", "bob"),
    ("mary", "sue"),
    ("mary", "tom"),
    ("sue", "ann"),
    ("bob", "kim"),
]


@pytest.fixture
def family_testbed(testbed):
    """The ancestor rules over a small family tree."""
    testbed.define(ANCESTOR_RULES)
    testbed.define_base_relation("parent", ("TEXT", "TEXT"))
    testbed.load_facts("parent", FAMILY_FACTS)
    return testbed


def family_descendants(root: str) -> set[tuple[str]]:
    """Ground-truth ancestor answers for the family fixture."""
    children: dict[str, list[str]] = {}
    for parent, child in FAMILY_FACTS:
        children.setdefault(parent, []).append(child)
    out: set[tuple[str]] = set()
    frontier = list(children.get(root, ()))
    while frontier:
        node = frontier.pop()
        if (node,) in out:
            continue
        out.add((node,))
        frontier.extend(children.get(node, ()))
    return out
