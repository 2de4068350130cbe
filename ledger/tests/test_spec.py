"""Names, units and limits: what BENCHMARK.json promises is what runs emit."""

import json
import os
import re

from ledger import cli, spec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_states_the_spec():
    assert _benchmark() == spec.benchmark_json()


def test_names_units_and_limits():
    document = _benchmark()
    assert set(document) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = (
        [w["name"] for w in document["workloads"]]
        + [m["name"] for m in document["end_to_end"]]
        + [m["name"] for m in document["per_layer"]]
    )
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in document["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in document["end_to_end"])
    assert 1 <= document["run_seconds"] <= 60
    assert len(json.dumps(document)) < 64 * 1024


def test_result_line_has_exactly_the_promised_metrics():
    for traced, table in ((False, spec.END_TO_END), (True, spec.PER_LAYER)):
        record = {
            "traced": traced,
            "attempted": 7,
            "failed": 1,
            "metrics": {metric.name: 1.5 for metric in table},
        }
        record["metrics"][table[0].name] = None  # a layer with no data prints 0
        line = json.loads(cli._driver_line(record))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is False and line["attempted"] == 7 and line["failed"] == 1
        assert list(line["metrics"]) == [metric.name for metric in table]
        assert line["metrics"][table[0].name]["value"] == 0
        for metric in table:
            assert line["metrics"][metric.name]["unit"] == metric.unit


def test_every_layer_metric_says_what_it_should_move():
    moved = {m.name for m in spec.END_TO_END}
    for layer in spec.PER_LAYER:
        assert layer.moves
        if not layer.name.startswith("obs."):
            assert any(name in layer.moves for name in moved), layer.name
            assert any(name in layer.moves for name in spec.WORKLOADS), layer.name
