"""Command line: ``run`` (one workload or the whole ledger), ``repeat`` and
``spread`` (calibrate the bounds), ``selftest``."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Sequence

from . import report, spec
from .runner import OUT_DIR, record_path, run_isolated, run_workload


def _driver_line(record: dict[str, Any]) -> str:
    """The one-object result line the benchmark contract asks for."""
    table = spec.PER_LAYER if record["traced"] else spec.END_TO_END
    metrics = {}
    for metric in table:
        value = record["metrics"].get(metric.name)
        # A layer that did no work on this workload (or whose hook is gone;
        # see obs.missing_hooks) reports 0 here and null in the full report.
        metrics[metric.name] = {"value": 0 if value is None else value, "unit": metric.unit}
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def _run(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    unknown = [name for name in names if name not in spec.WORKLOADS]
    if unknown:
        sys.stderr.write(f"ledger: unknown workload {unknown[0]!r}; one of {list(spec.WORKLOADS)}\n")
        return 2
    if args.workload and args.trace is not None:
        traced = bool(args.trace)
        record = run_workload(args.workload, args.seed, args.seconds, traced=traced)
        report.write_json(record, record_path(args.workload, traced))
        print(report.render_record(record))
        print(_driver_line(record))
        return 0
    records = [
        run_isolated(name, args.seed, args.seconds, traced)
        for name in names
        for traced in ([True] if args.traced else [False, True])
    ]
    path = report.write_json(
        report.ledger_document(records, args.seed, args.seconds),
        os.path.join(OUT_DIR, "ledger.json"),
    )
    print(f"ledger: wrote {path}")
    return 0 if all(record["failed"] == 0 for record in records) else 1


def _repeat(args: argparse.Namespace) -> int:
    from .repeat import repeat

    return repeat(args.seed, args.seconds)


def _spread(args: argparse.Namespace) -> int:
    from .repeat import spread

    return spread(args.seconds)


def _selftest(args: argparse.Namespace) -> int:
    from .selftest import run_all

    return run_all()


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m ledger", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one workload, or all six, untraced then traced")
    run.add_argument("--workload", help="one of: " + ", ".join(spec.WORKLOADS))
    run.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=spec.DEFAULT_SECONDS,
                     help="cap on a measured section (its op count is fixed)")
    run.add_argument("--trace", type=int, choices=(0, 1),
                     help="with --workload: one run, end-to-end (0) or per-layer (1) "
                          "metrics, result object on the last line")
    run.add_argument("--traced", action="store_true", help="only the traced pass")
    run.set_defaults(handler=_run)

    again = commands.add_parser("repeat", help="two full untraced sets; do they agree within bounds?")
    again.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    again.add_argument("--seconds", type=float, default=spec.DEFAULT_SECONDS)
    again.set_defaults(handler=_repeat)

    seeds = commands.add_parser("spread", help="ten seeds per workload; quartile spread against bounds")
    seeds.add_argument("--seconds", type=float, default=spec.DEFAULT_SECONDS)
    seeds.set_defaults(handler=_spread)

    test = commands.add_parser("selftest", help="the ledger's own tests, tiny sizes")
    test.set_defaults(handler=_selftest)

    args = parser.parse_args(argv)
    return args.handler(args)
