"""Shared helpers for the benchmark suite.

Every benchmark runs one experiment spec exactly once through
``benchmark.pedantic`` (the runner already repeats and takes medians),
prints the paper-shaped table, appends the rows to
``$BENCH_REPORT_DIR/BENCH_<spec>.jsonl`` when that is set, fails on an
error row, and asserts the paper's qualitative findings on the rows.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import append_jsonl, report, run


@pytest.fixture
def run_spec(benchmark):
    """Run a spec once under pytest-benchmark and return its rows."""

    def runner(spec, **params):
        rows = benchmark.pedantic(run, args=(spec,), kwargs=params, rounds=1, iterations=1)
        print()
        print(report(spec, rows))
        directory = os.environ.get("BENCH_REPORT_DIR")
        if directory:
            append_jsonl(os.path.join(directory, f"BENCH_{spec.name}.jsonl"), rows)
        assert not [row for row in rows if row["error"]], rows
        return rows

    return runner


def p50(row, key="seconds"):
    """A row's median seconds for ``key``."""
    return row["p50"][key]


def by(rows, field, lever=None):
    """``rows`` (of one lever, when given) keyed by a point field."""
    return {
        row["point"][field]: row for row in rows if lever is None or row["lever"] == lever
    }
