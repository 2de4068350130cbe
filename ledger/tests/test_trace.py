"""Span arithmetic on a hand-built tree, and the hook table's manners."""

import sys
import types

from ledger import layers, trace
from ledger.trace import Hook


def _span(name, start, end, parent, op=1, attrs=None):
    return [name, start, end, parent, op, attrs]


def test_self_time_is_duration_minus_children():
    #  op 0..100
    #    query 10..90
    #      compile 10..40   (parse 12..20 inside)
    #      execute 40..85   (sql 50..60, sql 70..80 inside)
    spans = [
        _span("op", 0, 100, -1),
        _span("km.session.query", 10, 90, 0),
        _span("km.compile", 10, 40, 1),
        _span("datalog.parse", 12, 20, 2),
        _span("runtime.execute", 40, 85, 1),
        _span("dbms.sql", 50, 60, 4),
        _span("dbms.sql", 70, 80, 4),
    ]
    own = trace.self_times(spans)
    assert own == [20, 5, 22, 8, 25, 10, 10]
    assert sum(own) == 100  # layers plus the uncovered part sum to the op


def test_fold_groups_layers_and_coverage():
    spans = [
        _span("op", 0, 100, -1),
        _span("km.session.query", 10, 90, 0, attrs={"answer_rows": 4}),
        _span("runtime.execute", 40, 85, 1, attrs={"iterations": 3, "tuples": 12}),
        _span("dbms.sql", 50, 60, 2, attrs={"kind": "CREATE", "changed": 0, "cache_hit": False}),
        _span("dbms.sql", 70, 80, 2, attrs={"kind": "INSERT", "changed": 8, "cache_hit": True}),
    ]
    folded = layers.fold([{"pid": 1, "role": "local", "threads": {"1": spans}}])
    group = folded["groups"][1]
    assert group.duration["dbms.sql"] == 20 and group.count["dbms.sql"] == 2
    assert group.own["runtime.execute"] == 25
    assert group.attrs["ddl"] == 1 and group.attrs["changed"] == 8
    assert group.attrs["stmt_hits"] == 1 and group.attrs["stmt_misses"] == 1
    assert folded["op_duration"][1] == 100 and folded["covered"][1] == 80
    assert layers.SPAN_METRICS["dbms.rows_per_answer"][1](group) == 2.0


def _fake_module():
    module = types.ModuleType("ledger_fake_target")

    class Box:
        def work(self, value):
            return value * 2 + 1

    module.Box = Box
    sys.modules[module.__name__] = module
    return module


def test_install_records_nested_spans_and_reports_missing_targets():
    module = _fake_module()
    hooks = (
        Hook("fake.work", ("ledger_fake_target:Box.work",)),
        Hook("fake.gone", ("ledger_fake_target:Box.vanished", "no_such_module_xyz:f")),
    )
    missing = trace.install(hooks)
    assert missing == ["ledger_fake_target:Box.vanished", "no_such_module_xyz:f"]
    assert trace.spans_missing(missing, hooks) == {"fake.gone"}
    assert trace.install(hooks) == missing  # idempotent: no double wrapping
    recorder = trace.RECORDER
    assert module.Box().work(3) == 7  # disabled: straight through, nothing recorded
    before = len(recorder.state().spans)
    recorder.enabled = True
    try:
        token = recorder.begin_op(42)
        assert module.Box().work(5) == 11
        recorder.end(*token)
    finally:
        recorder.enabled = False
    fresh = recorder.state().spans[before:]
    assert [span[trace.NAME] for span in fresh] == ["op", "fake.work"]
    assert fresh[1][trace.OP] == 42 and fresh[1][trace.PARENT] == before
    assert fresh[0][trace.START] <= fresh[1][trace.START] <= fresh[1][trace.END] <= fresh[0][trace.END]


def test_metrics_of_a_missing_hook_are_null():
    hooks_missing = ["repro.runtime.program:QueryProgram.execute"]
    assert "runtime.execute" in trace.spans_missing(hooks_missing)
    # one of two targets gone: the span still exists
    assert "dbms.sql" not in trace.spans_missing(["repro.dbms.engine:Database.executemany"])
