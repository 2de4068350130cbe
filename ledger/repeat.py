"""``python -m ledger repeat`` and ``spread``: is the ledger steady enough
for its own bounds?

``repeat`` takes two full sets of the untraced suite, ``PASSES`` passes
each, alternately — a pass of the first set in workload order, a pass of
the second in reverse — so both sets see the same minutes of this shared
box, whose speed shifts for a minute at a time (two single passes, one
after the other, disagreed by 29 % on one p95 and 86 % on one set-up
time).  A set keeps each metric's median over its passes, the way the
benchmark driver compares two commits, and the two sets' values of every
end-to-end metric on every workload must lie within the metric's bound of
each other; no op may fail and the op counts must be equal.  ``spread``
is the check the benchmark driver makes before it accepts the ledger: ten
runs of every workload on ten seeds, and per metric the distance between
the first and third quartile as a share of the median.  A bound is never
tighter than what these two measure; both write what they saw under
``results/``.
"""

from __future__ import annotations

import os
import statistics
from typing import Any

from . import report, spec
from .runner import run_isolated

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
#: Passes per set of ``repeat``; a set keeps each metric's median over them.
PASSES = 3
#: The seeds of ``spread``: ten runs per workload, as the driver takes them.
SPREAD_SEEDS = tuple(range(101, 111))


def compare(first: dict[str, list], second: dict[str, list]) -> dict[str, Any]:
    """Pair up two sets (workload -> its run records), metric by metric."""
    pairs: dict[str, Any] = {}
    agree = True
    for name in spec.WORKLOADS:
        rows = {}
        for metric in spec.END_TO_END:
            a, b = (
                statistics.median(run["metrics"][metric.name] for run in side[name])
                for side in (first, second)
            )
            difference = max(a, b) / min(a, b) - 1.0
            within = difference <= metric.bound
            agree = agree and within
            rows[metric.name] = {
                "first": a, "second": b, "relative_difference": difference,
                "bound": metric.bound, "unit": metric.unit, "within": within,
            }
        shares = [max(run["failed_share"] for run in side[name]) for side in (first, second)]
        agree = agree and not any(shares)
        rows["failed_share"] = {
            "first": shares[0], "second": shares[1],
            "bound": 0.0, "unit": "ratio", "within": not any(shares),
        }
        counts = {run["attempted"] for side in (first, second) for run in side[name]}
        agree = agree and len(counts) == 1  # fixed op counts: they repeat
        rows["attempted"] = {
            "first": min(counts), "second": max(counts),
            "bound": 0.0, "unit": "count", "within": len(counts) == 1,
        }
        pairs[name] = rows
    return {"agree": agree, "pairs": pairs}


def render(comparison: dict[str, Any]) -> str:
    lines = []
    for name, rows in comparison["pairs"].items():
        lines.append(f"== {name}")
        for metric, row in rows.items():
            difference = row.get("relative_difference")
            shown = "" if difference is None else f"  diff={difference:7.2%}"
            verdict = "ok" if row["within"] else "BEYOND BOUND"
            lines.append(
                f"   {metric:<20} {row['first']:>12.4f} {row['second']:>12.4f} {row['unit']:<6}"
                f"{shown}  bound={row['bound']:.2f}  {verdict}"
            )
    lines.append("ledger repeat: " + ("sets agree within bounds" if comparison["agree"]
                                      else "sets DISAGREE beyond a bound"))
    return "\n".join(lines)


def repeat(seed: int, seconds: float) -> int:
    order = list(spec.WORKLOADS)
    sets: list[dict[str, list]] = [{name: [] for name in order} for _ in range(2)]
    for _ in range(PASSES):
        for records, names in zip(sets, (order, order[::-1])):
            for name in names:
                records[name].append(run_isolated(name, seed, seconds, traced=False))
    comparison = compare(*sets)
    print(render(comparison))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    document = {"meta": {**report.meta(seed, seconds), "passes_per_set": PASSES}, **comparison}
    path = report.write_json(document, os.path.join(RESULTS_DIR, "calibration.json"))
    print(f"ledger: wrote {path}")
    return 0 if comparison["agree"] else 1


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)`` gives them."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def spread(seconds: float) -> int:
    """Ten seeds per workload, seed by seed so every workload sees the same
    minutes of the box; exit 0 when every spread is within its bound."""
    runs: dict[str, list] = {name: [] for name in spec.WORKLOADS}
    for seed in SPREAD_SEEDS:
        for name in spec.WORKLOADS:
            runs[name].append(run_isolated(name, seed, seconds, traced=False))
    within = True
    table: dict[str, Any] = {}
    for name, records in runs.items():
        print(f"== {name}")
        table[name] = {"failed": sum(r["failed"] for r in records)}
        within = within and not table[name]["failed"]
        for metric in spec.END_TO_END:
            values = [record["metrics"][metric.name] for record in records]
            share = quartile_spread(values)
            # The driver does not hold set-up time to its spread, only to its median.
            ok = share <= metric.bound or metric.name == "setup_s"
            within = within and ok
            table[name][metric.name] = {
                "values": values, "median": statistics.median(values),
                "spread": share, "bound": metric.bound, "unit": metric.unit,
            }
            print(
                f"   {metric.name:<20} median={statistics.median(values):>12.4f} {metric.unit:<6}"
                f"  spread={share:7.2%}  bound={metric.bound:.2f}  {'ok' if ok else 'BEYOND BOUND'}"
            )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    document = {
        "meta": {**report.meta(None, seconds), "seeds": list(SPREAD_SEEDS)},
        "within": within, "workloads": table,
    }
    path = report.write_json(document, os.path.join(RESULTS_DIR, "spread.json"))
    print(f"ledger: wrote {path}")
    return 0 if within else 1
