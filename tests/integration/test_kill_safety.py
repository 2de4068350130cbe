"""A process killed mid-transaction leaves a file D/KB at its last commit."""

from __future__ import annotations

import os

from repro import Testbed, TestbedConfig

ROWS = 50_000


def test_kill_mid_transaction_keeps_the_committed_state(tmp_path):
    path = os.path.join(tmp_path, "dkb.sqlite")
    before = [(i, i + 1) for i in range(ROWS)]
    with Testbed(TestbedConfig(path=path)) as testbed:
        testbed.define_base_relation("edge", ("INTEGER", "INTEGER"))
        testbed.load_facts("edge", before)
    pid = os.fork()
    if pid == 0:  # the child: dirty more pages than the cache holds, die
        try:
            testbed = Testbed(TestbedConfig(path=path))
            with testbed.database.transaction():
                testbed.delete_facts("edge", before[::2])
                testbed.load_facts("edge", [(-i, i) for i in range(1, ROWS + 1)])
                os._exit(137)
        finally:
            os._exit(1)
    __, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 137
    with Testbed(TestbedConfig(path=path)) as testbed:
        assert testbed.database.execute("PRAGMA integrity_check") == [("ok",)]
        assert sorted(testbed.catalog.facts_of("edge")) == before
