"""One experiment runner: a spec per paper artifact, a plain dict per point.

Every measurement of the paper's section 5.3 has one shape: build inputs,
sweep one parameter, measure one or more *levers* (naive/semi-naive, magic
off/on, compiled/source-only, ...) at each point, and report medians and
per-component shares.  An :class:`Experiment` names those parts; :func:`run`
executes any of them and returns rows — plain JSON values, one per
(point, lever) — that :func:`append_jsonl` appends to a report file and
:func:`format_table` prints.

The runner measures every lever of a point on the same built inputs,
rotating which lever goes first on each repetition, and reports each
lever's paired ratio against the spec's baseline lever: the levers are
compared on the same samples, not on separate sweeps.  A ``measure`` that
raises, or levers of one point that return different answers, become an
error row; the sweep goes on.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from ..server.loadgen import percentile
from .ascii_plot import ascii_plot

#: The keys of every row, error rows included.
ROW_KEYS = (
    "commit", "run", "spec", "params", "point", "lever", "n",
    "p50", "p90", "counts", "ratio", "share", "error",
)


@dataclass(frozen=True)
class Sample:
    """One measurement of one lever at one point.

    ``seconds`` are the timed quantities (one ``seconds`` entry, or the
    span components of a breakdown); ``counts`` are the deterministic
    values beside them (statements, DDL, answers, selectivity).  When
    ``answers`` is set, every lever of the point must return the same.
    """

    seconds: Mapping[str, float]
    counts: Mapping[str, Any] = field(default_factory=dict)
    answers: object = None


def _no_inputs(params: Mapping[str, Any], stack: ExitStack) -> None:
    """The build of a spec whose ``measure`` makes its own inputs."""


@dataclass(frozen=True)
class Experiment:
    """One figure or table: inputs, a sweep, levers and a measurement.

    ``build(params, stack)`` makes the inputs every point and lever share,
    registering what must be closed on ``stack``; ``sweep(params)`` lists
    the points; ``measure(inputs, point, lever)`` takes one
    :class:`Sample`.  ``params`` are the defaults a run may override and
    ``quick`` the smallest sweep.  ``parts`` names the ``seconds`` keys
    whose shares of their sum the rows report (Tables 4, 5 and 8), and
    ``plot`` an ``(x, seconds key)`` pair to draw under the table.
    """

    name: str
    title: str
    levers: tuple[str, ...]
    sweep: Callable[[Mapping[str, Any]], Iterable[Mapping[str, Any]]]
    measure: Callable[[Any, Mapping[str, Any], str], Sample]
    build: Callable[[Mapping[str, Any], ExitStack], Any] = _no_inputs
    params: Mapping[str, Any] = field(default_factory=dict)
    quick: Mapping[str, Any] = field(default_factory=dict)
    baseline: Optional[str] = None
    parts: tuple[str, ...] = ()
    repetitions: int = 3
    plot: Optional[tuple[str, str]] = None


def run(
    spec: Experiment,
    repetitions: Optional[int] = None,
    levers: Optional[Sequence[str]] = None,
    **overrides: Any,
) -> list[dict]:
    """Run ``spec`` and return one row per (point, lever).

    ``overrides`` replace entries of ``spec.params``; ``levers`` narrows or
    replaces ``spec.levers``.
    """
    unknown = sorted(set(overrides) - set(spec.params))
    if unknown:
        raise TypeError(f"{spec.name} has no parameter(s) {', '.join(unknown)}")
    params = {**spec.params, **overrides}
    chosen = tuple(levers or spec.levers)
    stamp = {
        "commit": _commit(),
        "run": datetime.now(timezone.utc).isoformat(),
        "spec": spec.name,
        "params": params,
    }
    rows: list[dict] = []
    with ExitStack() as stack:
        try:
            inputs = spec.build(params, stack)
            points = [dict(point) for point in spec.sweep(params)]
        except Exception as error:  # the run reports, it does not raise
            return [_row(stamp, {}, None, [], None, (), _describe(error))]
        for point in points:
            rows.extend(
                _run_point(
                    spec, inputs, point, chosen,
                    repetitions or spec.repetitions, stamp,
                )
            )
    return rows


def _run_point(
    spec: Experiment,
    inputs: Any,
    point: dict,
    levers: tuple[str, ...],
    repetitions: int,
    stamp: dict,
) -> list[dict]:
    samples: dict[str, list[Sample]] = {lever: [] for lever in levers}
    errors: dict[str, str] = {}
    for repetition in range(repetitions):
        turn = repetition % len(levers)
        answers: dict[str, object] = {}
        for lever in levers[turn:] + levers[:turn]:
            if lever in errors:
                continue
            try:
                sample = spec.measure(inputs, point, lever)
            except Exception as error:  # one failed lever must not end the sweep
                errors[lever] = _describe(error)
                continue
            samples[lever].append(sample)
            if sample.answers is not None:
                answers[lever] = sample.answers
        reference = next(
            (lever for lever in (spec.baseline, *levers) if lever in answers),
            None,
        )
        for lever, value in answers.items():
            if value != answers[reference]:
                errors.setdefault(
                    lever, f"answers differ from lever {reference!r}"
                )
    baseline = None
    if spec.baseline in samples and spec.baseline not in errors:
        baseline = samples[spec.baseline]
    return [
        _row(
            stamp, point, lever, samples[lever], baseline, spec.parts,
            errors.get(lever),
        )
        for lever in levers
    ]


def _row(
    stamp: dict,
    point: dict,
    lever: Optional[str],
    samples: list[Sample],
    baseline: Optional[list[Sample]],
    parts: tuple[str, ...],
    error: Optional[str],
) -> dict:
    row = {
        **stamp, "point": point, "lever": lever, "n": len(samples),
        "p50": {}, "p90": {}, "counts": {}, "ratio": {}, "share": {},
        "error": error,
    }
    if error is None and samples:
        keys = list(samples[0].seconds)
        series = {key: [sample.seconds[key] for sample in samples] for key in keys}
        row["p50"] = {key: statistics.median(series[key]) for key in keys}
        row["p90"] = {key: percentile(series[key], 0.9) for key in keys}
        row["counts"] = dict(samples[-1].counts)
        if baseline is not None and len(baseline) == len(samples):
            row["ratio"] = {
                key: _paired_ratio(series[key], [b.seconds[key] for b in baseline])
                for key in keys
            }
        whole = sum(row["p50"][key] for key in parts)
        row["share"] = {
            key: 100.0 * row["p50"][key] / whole if whole else 0.0
            for key in parts
        }
    # Rows are JSON values: what is written is exactly what reads back.
    return json.loads(json.dumps(row, default=str))


def _paired_ratio(values: list[float], bases: list[float]) -> Optional[float]:
    """Median of the per-repetition ratios, or ``None`` on a zero base."""
    if not all(bases):
        return None
    return statistics.median(v / b for v, b in zip(values, bases))


def _describe(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


@lru_cache(maxsize=1)
def _commit() -> str:
    """The checkout's commit (``-dirty`` with local changes), or ``unknown``."""
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return described.stdout.strip() or "unknown"


def timed(function: Callable[[], Any]) -> tuple[float, Any]:
    """Wall seconds of one call, and its return value."""
    started = time.perf_counter()
    value = function()
    return time.perf_counter() - started, value


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------


def append_jsonl(path: str, rows: Iterable[dict]) -> str:
    """Append ``rows`` to ``path``, one JSON object a line; returns the path."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return path


def read_jsonl(*paths: str) -> list[dict]:
    """Every row of every file, in file order."""
    rows: list[dict] = []
    for path in paths:
        with open(path) as handle:
            rows.extend(json.loads(line) for line in handle if line.strip())
    return rows


def latest(rows: Iterable[dict]) -> dict[str, list[dict]]:
    """Per spec (in order of first appearance), the rows of its last run."""
    by_spec: dict[str, list[dict]] = {}
    for row in rows:
        by_spec.setdefault(row["spec"], []).append(row)
    return {
        spec: [row for row in group if row["run"] == group[-1]["run"]]
        for spec, group in by_spec.items()
    }


# ---------------------------------------------------------------------------
# The one formatter
# ---------------------------------------------------------------------------


def format_table(rows: Sequence[dict]) -> str:
    """Any spec's rows as a fixed-width text table.

    Columns: the point's fields, the lever, each timed key's p50 in ms
    (a breakdown's parts as shares of their summed p50s instead, and that
    sum), the first key's p90 when a row has more than one sample, the
    paired ratio against the baseline, the counts (but those the point
    already names), and an ``error`` column when a row failed.
    """
    point_keys = _keys(row["point"] for row in rows)
    shared = _keys(row["share"] for row in rows)
    timed_keys = [key for key in _keys(row["p50"] for row in rows) if key not in shared]
    count_keys = [key for key in _keys(row["counts"] for row in rows) if key not in point_keys]
    primary = timed_keys[0] if timed_keys else None
    show_p90 = primary is not None and any(row["n"] > 1 for row in rows)
    show_ratio = any(row["ratio"].get(primary) is not None for row in rows)
    show_error = any(row["error"] for row in rows)

    headers = [*point_keys, "lever"]
    headers += [f"{key} ms" for key in timed_keys]
    headers += ["p90 ms"] if show_p90 else []
    headers += ["ratio"] if show_ratio else []
    headers += [f"{key} %" for key in shared]
    headers += ["parts ms"] if shared else []
    headers += count_keys
    headers += ["error"] if show_error else []

    body = []
    for row in rows:
        cells = [_cell(row["point"].get(key)) for key in point_keys]
        cells.append(str(row["lever"]))
        cells += [_ms(row["p50"].get(key)) for key in timed_keys]
        if show_p90:
            cells.append(_ms(row["p90"].get(primary)))
        if show_ratio:
            ratio = row["ratio"].get(primary)
            cells.append("-" if ratio is None else f"{ratio:.3g}x")
        cells += [
            "-" if key not in row["share"] else f"{row['share'][key]:.1f}%"
            for key in shared
        ]
        if shared:
            cells.append(_ms(sum(row["p50"].get(key, 0.0) for key in shared)))
        cells += [_cell(row["counts"].get(key)) for key in count_keys]
        if show_error:
            cells.append(row["error"] or "")
        body.append(cells)

    widths = [len(header) for header in headers]
    for cells in body:
        widths = [max(width, len(cell)) for width, cell in zip(widths, cells)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    lines += [
        "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        for cells in body
    ]
    return "\n".join(lines)


def report(spec: Optional[Experiment], rows: Sequence[dict]) -> str:
    """The spec's title, its table and, when it names one, its plot."""
    title = spec.title if spec is not None else rows[0]["spec"] if rows else ""
    text = f"{title}\n{format_table(rows)}"
    if spec is not None and spec.plot is not None:
        x, y = spec.plot
        series: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            if row["error"] or y not in row["p50"]:
                continue
            where = {**row["counts"], **row["point"]}
            labels = [str(v) for v in row["point"].values() if isinstance(v, str)]
            series.setdefault("/".join([*labels, row["lever"]]), []).append(
                (float(where[x]), row["p50"][y] * 1000.0)
            )
        text += "\n\n" + ascii_plot(
            {name: sorted(points) for name, points in series.items()},
            title=f"{spec.title} (plotted)",
            x_label=x,
            y_label=f"{y} ms",
        )
    return text


def _keys(mappings: Iterable[Mapping[str, Any]]) -> list[str]:
    seen: dict[str, None] = {}
    for mapping in mappings:
        seen.update(dict.fromkeys(mapping))
    return list(seen)


def _ms(seconds: Optional[float]) -> str:
    return "-" if seconds is None else f"{seconds * 1000:.3f}"


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
