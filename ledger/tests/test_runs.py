"""The six workloads at tiny sizes: correct answers, wrong answers counted,
every promised metric emitted, children reaped."""

import os

from ledger import runner, spec
from ledger.launcher import Child, ChildError
from ledger.workloads_served import CONNECTIONS

TINY = {
    "compile_rulebase": dict(QUERY_MODULES=2, FILLER_MODULES=1, CHAIN=5, ROUND=4, ROUNDS=3),
    "lfp_closure": dict(TREE_DEPTH=3, LISTS=2, LIST_LENGTH=4, DAG_LAYERS=3, DAG_WIDTH=4,
                        CYCLES=2, CYCLE_LENGTH=4, CYCLE_CHORDS=1, SG_DEPTH=2, ROUNDS=2),
    "kb_update": dict(MODULES=2, CHAIN=4, LAP=6, PROVE=3, ROUNDS=2),
    "serve_hot": dict(TREE_DEPTH=4, QUERY_LEVELS=(2, 3), PER_LEVEL=3, ROUNDS=5),
    "serve_write_read": dict(TREE_DEPTH=4, BATCH_LEVEL=2, PAIRS_PER_ROUND=1, ROUNDS=3),
    "cluster_routed": dict(TREE_DEPTH=2, TREES=4, ROUNDS=3,
                           ROUND=(("pinned", 4), ("fanout", 1), ("insert", 1))),
}
#: Ops a tiny run must attempt: rounds x ops per round x connections.
TINY_OPS = {
    "compile_rulebase": 3 * 4, "lfp_closure": 2 * 13, "kb_update": 2 * 6,
    "serve_hot": 5 * 6 * CONNECTIONS, "serve_write_read": 3 * 2 * CONNECTIONS,
    "cluster_routed": 3 * 6,
}


def _tiny(name, traced=False, seconds=30, seed=5, **extra):
    return runner.run_workload(
        name, seed, seconds, traced=traced, setups=1, keep_trace=False,
        overrides={**TINY[name], **extra},
    )


def test_untraced_runs_emit_every_end_to_end_metric():
    for name in spec.WORKLOADS:
        record = _tiny(name)
        assert record["failed"] == 0 and not record["capped"], name
        assert record["attempted"] == TINY_OPS[name], name  # a fixed op count
        assert set(record["metrics"]) == {m.name for m in spec.END_TO_END}
        for metric, value in record["metrics"].items():
            assert value > 0, (name, metric)
        assert len(record["digest"]) == 64


def test_same_seed_same_digest_other_seed_other_digest():
    first, again, other = (_tiny("lfp_closure", seed=seed) for seed in (5, 5, 6))
    assert first["digest"] == again["digest"] != other["digest"]
    assert first["attempted"] == again["attempted"] == other["attempted"]


def test_seconds_only_caps_a_run_at_a_round_boundary():
    record = _tiny("lfp_closure", seconds=0.0, ROUNDS=40)
    assert record["capped"] and record["attempted"] == 13  # the round it was in, no more


def test_every_kb_update_lap_starts_from_the_same_rule_base():
    """R_s after the run is the base plus one lap's rules, however many laps ran."""
    from ledger.workloads_local import KbUpdate

    seen = []

    class Watched(KbUpdate):
        def teardown(self):
            seen.append((self.stored_rules, self.testbed.stored_rule_count))
            return super().teardown()

    for laps in (1, 3):
        runner.run_workload("kb_update", 5, 30, setups=1, base=Watched,
                            overrides={**TINY["kb_update"], "ROUNDS": laps})
    assert seen[0] == seen[1] == (seen[0][0], seen[0][0] + 4 * TINY["kb_update"]["LAP"])


def test_traced_runs_emit_every_layer_metric():
    for name in ("lfp_closure", "kb_update", "serve_write_read", "cluster_routed"):
        record = _tiny(name, traced=True)
        assert record["failed"] == 0, name
        assert set(record["metrics"]) == {m.name for m in spec.PER_LAYER}
        assert record["missing_hooks"] == [] and record["metrics"]["obs.missing_hooks"] == 0
        assert record["metrics"]["dbms.sql_ms"] > 0, name
        assert 0 <= record["metrics"]["obs.unattributed_share"] < 1, name
    assert record["metrics"]["cluster.backend_rtt_ms"] > 0
    assert record["metrics"]["runtime.execute_ms"] > 0


def test_a_wrong_answer_is_a_failed_op():
    """Corrupt the oracle's expectation for one query text: every op that
    asks it must count as failed, and the run as incorrect."""
    from ledger.workloads_local import CompileRulebase

    class Wrong(CompileRulebase):
        def setup(self):
            super().setup()
            text, _ = self.queries[0]
            self.queries[0] = (text, frozenset({("not-the-answer",)}))
            self.poisoned = text

    record = runner.run_workload(
        "compile_rulebase", 5, 30, setups=1, overrides=TINY["compile_rulebase"], base=Wrong
    )
    assert record["failed"] >= 1
    assert record["failed_share"] == record["failed"] / record["attempted"] > 0
    from ledger import cli
    import json

    assert json.loads(cli._driver_line(record))["correct"] is False


def test_cluster_boots_and_is_reaped_twice(tmp_path=None):
    import tempfile

    os.makedirs(runner.OUT_DIR, exist_ok=True)
    for _ in range(2):
        with tempfile.TemporaryDirectory(dir=runner.OUT_DIR) as workdir:
            child = Child(
                "cluster",
                {"dir": workdir, "readers": 2, "trace": False, "shards": 2,
                 "tables": {"edge": 0}, "routes": {"ancestor": 0}},
            )
            assert child.group_alive()
            report = child.stop()
            assert len(report["processes"]) == 3  # router + two shards
            assert not child.group_alive(), "a dkb-shard process outlived its supervisor"
            assert child.process.poll() is not None


def test_a_child_that_cannot_boot_fails_fast_and_leaves_nothing():
    try:
        Child("server", {"dir": "/nonexistent/ledger", "readers": 1, "trace": False})
    except ChildError as error:
        assert "failed to boot" in str(error) or "exited" in str(error)
    else:
        raise AssertionError("boot in a missing directory succeeded")


def test_a_killed_supervisor_takes_its_shards_with_it():
    import signal
    import tempfile

    with tempfile.TemporaryDirectory(dir=runner.OUT_DIR) as workdir:
        child = Child(
            "cluster",
            {"dir": workdir, "readers": 1, "trace": False, "shards": 2,
             "tables": {"edge": 0}, "routes": {"ancestor": 0}},
        )
        os.kill(child.process.pid, signal.SIGKILL)  # the shards are now orphans
        child.process.wait(timeout=10)
        child.stop()
        assert not child.group_alive()
