"""``python -m repro trace`` — trace one query and write a Chrome trace.

Runs a query against a (possibly file-loaded) testbed session with tracing
enabled, prints the span tree, the metric snapshot, and any captured query
plans to stdout, and writes a ``chrome://tracing`` / Perfetto-loadable JSON
file.

The heavyweight imports (the whole Knowledge Manager) happen inside
:func:`main` so that :mod:`repro.obs` itself stays importable by the lower
layers without cycles.
"""

from __future__ import annotations

import argparse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run one query with structured tracing and export a "
        "Chrome trace_event JSON file.",
    )
    parser.add_argument("query", help="the query, e.g. '?- anc(a, X).'")
    parser.add_argument(
        "--db",
        default=":memory:",
        help="SQLite database path for the stored D/KB (default: in-memory)",
    )
    parser.add_argument(
        "--load",
        metavar="FILE",
        action="append",
        default=[],
        help="read clauses from FILE before running the query",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default="trace.json",
        help="Chrome trace output path (default: trace.json)",
    )
    parser.add_argument(
        "--strategy",
        help="LFP strategy: lfp_cte (default), naive, or seminaive",
    )
    parser.add_argument(
        "--optimize",
        action="store_true",
        help="force the generalized magic sets rewrite (default: the "
        "per-form decision every other entry point makes)",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    from ..km.config import TestbedConfig
    from ..km.policy import DEFAULT_OPTIMIZE
    from ..km.session import Testbed
    from ..runtime.program import DEFAULT_STRATEGY, LfpStrategy
    from .export import render_span_tree, write_chrome_trace

    arguments = build_parser().parse_args(argv)
    try:
        strategy = LfpStrategy((arguments.strategy or DEFAULT_STRATEGY.value).lower())
    except ValueError:
        names = ", ".join(s.value for s in LfpStrategy)
        print(f"unknown strategy {arguments.strategy!r} (one of: {names})")
        return 2
    with Testbed(TestbedConfig(path=arguments.db, trace=True)) as testbed:
        for path in arguments.load:
            with open(path) as handle:
                testbed.define(handle.read())
        result = testbed.query(
            arguments.query,
            optimize=True if arguments.optimize else DEFAULT_OPTIMIZE,
            strategy=strategy,
        )
        tracer = testbed.tracer
        assert tracer is not None
        print(f"{len(result.rows)} answers in {result.total_seconds * 1000:.2f} ms")
        print()
        print(render_span_tree(tracer))
        print()
        print(tracer.metrics.render())
        if tracer.plans is not None and tracer.plans.plans:
            print()
            print(tracer.plans.render())
        written = write_chrome_trace(
            arguments.out,
            tracer,
            metadata={"query": arguments.query, "strategy": strategy.value},
        )
        print(f"\nwrote {written}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
