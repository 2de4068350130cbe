"""The experiment runner, every registered spec, and the committed report.

``benchmarks/`` runs the specs at full size and asserts the paper's
shapes; here every spec runs once at its smallest sweep so its mechanics —
inputs, measurement, row schema, formatting and the JSONL round trip — are
covered by the fast suite, beside the runner's own contract.
"""

from pathlib import Path

import pytest

from repro.bench import (
    ROW_KEYS,
    SPECS,
    Experiment,
    Sample,
    append_jsonl,
    format_table,
    latest,
    read_jsonl,
    report,
    run,
)
from repro.bench import specs
from repro.server.cache import VersionedResultCache

PAPER_REPORT = Path(__file__).resolve().parents[2] / "BENCH_paper.jsonl"


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_spec_runs_at_its_smallest_sweep(name, tmp_path):
    spec = SPECS[name]
    rows = run(spec, repetitions=1, **spec.quick)

    assert rows
    assert {row["lever"] for row in rows} == set(spec.levers)
    for row in rows:
        assert sorted(row) == sorted(ROW_KEYS)
        assert row["error"] is None, row
        assert row["spec"] == name and row["n"] == 1
        assert row["p50"] and set(row["p90"]) == set(row["p50"])
        assert all(value >= 0 for value in row["p50"].values())
        assert set(row["share"]) == set(spec.parts)
        assert bool(row["ratio"]) == (spec.baseline is not None)

    text = report(spec, rows)
    assert text.startswith(spec.title)
    assert all(lever in text for lever in spec.levers)

    path = append_jsonl(str(tmp_path / f"BENCH_{name}.jsonl"), rows)
    assert read_jsonl(path) == rows
    assert latest(read_jsonl(path)) == {name: rows}


def _toy(measure, levers=("a", "b"), baseline="a", points=({"x": 1},)):
    return Experiment(
        name="toy",
        title="toy",
        levers=levers,
        baseline=baseline,
        sweep=lambda params: points,
        measure=measure,
    )


def test_levers_returning_different_answers_make_an_error_row():
    def measure(inputs, point, lever):
        answers = frozenset({("t2",)}) if lever == "c" else frozenset({("t1",)})
        return Sample({"seconds": 0.001}, {"answers": 1}, answers=answers)

    rows = run(_toy(measure, levers=("a", "b", "c")))
    errors = {row["lever"]: row["error"] for row in rows}
    assert errors["a"] is None and errors["b"] is None
    assert errors["c"] == "answers differ from lever 'a'"
    assert rows[2]["p50"] == {}
    assert "error" in format_table(rows)


def test_a_failing_measure_is_an_error_row_and_the_sweep_goes_on():
    def measure(inputs, point, lever):
        if point["x"] == 1 and lever == "b":
            raise ValueError("boom")
        return Sample({"seconds": 0.001})

    rows = run(_toy(measure, points=({"x": 1}, {"x": 2})))
    assert [(row["point"]["x"], row["lever"], row["error"]) for row in rows] == [
        (1, "a", None),
        (1, "b", "ValueError: boom"),
        (2, "a", None),
        (2, "b", None),
    ]


def test_a_failing_build_is_one_error_row():
    def build(params, stack):
        raise OSError("no disk")

    spec = Experiment(
        name="toy", title="toy", levers=("a",), sweep=lambda p: [{}],
        measure=lambda inputs, point, lever: Sample({"seconds": 0.0}), build=build,
    )
    (row,) = run(spec)
    assert row["error"] == "OSError: no disk" and row["lever"] is None


def test_levers_take_turns_going_first_and_ratios_are_paired():
    calls = []
    seconds = {"a": [1.0, 2.0, 4.0], "b": [3.0, 4.0, 8.0]}

    def measure(inputs, point, lever):
        calls.append(lever)
        return Sample({"seconds": seconds[lever][calls.count(lever) - 1]})

    rows = run(_toy(measure), repetitions=3)
    assert calls == ["a", "b", "b", "a", "a", "b"]
    a, b = rows
    assert a["p50"] == {"seconds": 2.0} and a["p90"] == {"seconds": 4.0}
    assert a["ratio"] == {"seconds": 1.0}
    # Per-repetition ratios 3, 2, 2: their median, not the medians' ratio.
    assert b["ratio"] == {"seconds": 2.0}


def test_unknown_parameters_are_refused():
    with pytest.raises(TypeError, match="no parameter"):
        run(specs.FIG12, depht=4)


def test_a_cache_that_never_hits_is_an_error_row(monkeypatch):
    class NeverHits(VersionedResultCache):
        def get(self, key, version):
            return super().get(key, -1)

    monkeypatch.setattr(specs, "VersionedResultCache", NeverHits)
    rows = run(specs.SERVER_CACHE, repetitions=2, **specs.SERVER_CACHE.quick)
    errors = {row["lever"]: row["error"] for row in rows}
    assert errors == {"cold": None, "warm": "AssertionError: a warm read was a cache miss"}


def test_the_committed_paper_report_names_every_spec():
    rows = read_jsonl(str(PAPER_REPORT))
    assert set(SPECS) <= {row["spec"] for row in rows}
    assert all(sorted(row) == sorted(ROW_KEYS) for row in rows)
    for name, group in latest(rows).items():
        assert report(SPECS.get(name), group)
