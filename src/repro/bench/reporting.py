"""Text rendering of experiment results in the shape of the paper's artifacts.

Each ``format_*`` function takes the rows produced by the matching runner in
:mod:`repro.bench.experiments` and returns a plain-text table/series that the
benchmark suite prints, mirroring what the paper's figure or table reports.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Iterable, Sequence

from .experiments import (
    AblationPoint,
    CompileBreakdownRow,
    DictReadPoint,
    ExecutionPoint,
    ExtractPoint,
    LfpBreakdownRow,
    LFP_PHASES,
    UpdatePoint,
    find_crossover,
)


def _table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a fixed-width text table."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in materialised:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.3f}"


def format_fig7(points: list[ExtractPoint]) -> str:
    """Figure 7: t_extract vs R_s, one curve per R_rs."""
    rows = [
        (p.relevant_rules, p.total_rules, _ms(p.seconds), p.statements)
        for p in sorted(points, key=lambda p: (p.relevant_rules, p.total_rules))
    ]
    return "Figure 7 — t_extract vs total stored rules R_s\n" + _table(
        ("R_rs", "R_s", "t_extract (ms)", "SQL stmts"), rows
    )


def format_fig8(points: list[ExtractPoint], total_rules: int | None = None) -> str:
    """Figure 8: t_extract vs R_rs at a fixed R_s."""
    if total_rules is None:
        total_rules = max(p.total_rules for p in points)
    rows = [
        (p.relevant_rules, _ms(p.seconds), p.rules_extracted)
        for p in sorted(points, key=lambda p: p.relevant_rules)
        if p.total_rules == total_rules
    ]
    return (
        f"Figure 8 — t_extract vs relevant rules R_rs (R_s = {total_rules})\n"
        + _table(("R_rs", "t_extract (ms)", "rules extracted"), rows)
    )


def format_fig9(points: list[DictReadPoint]) -> str:
    """Figure 9: t_readdict vs P_s, one curve per P_rs."""
    rows = [
        (p.relevant_predicates, p.total_predicates, _ms(p.seconds))
        for p in sorted(
            points, key=lambda p: (p.relevant_predicates, p.total_predicates)
        )
    ]
    return "Figure 9 — t_readdict vs total stored predicates P_s\n" + _table(
        ("P_rs", "P_s", "t_readdict (ms)"), rows
    )


def format_fig10(
    points: list[DictReadPoint], total_predicates: int | None = None
) -> str:
    """Figure 10: t_readdict vs P_rs at a fixed P_s."""
    if total_predicates is None:
        total_predicates = max(p.total_predicates for p in points)
    rows = [
        (p.relevant_predicates, _ms(p.seconds))
        for p in sorted(points, key=lambda p: p.relevant_predicates)
        if p.total_predicates == total_predicates
    ]
    return (
        f"Figure 10 — t_readdict vs relevant predicates P_rs "
        f"(P_s = {total_predicates})\n"
        + _table(("P_rs", "t_readdict (ms)"), rows)
    )


TABLE4_COMPONENTS = (
    "setup",
    "extract",
    "readdict",
    "semantic",
    "eorder",
    "gencompile",
)


def format_table4(rows: list[CompileBreakdownRow]) -> str:
    """Table 4: percentage contribution of each compilation component."""
    body = []
    for row in sorted(rows, key=lambda r: r.relevant_rules):
        body.append(
            (
                row.relevant_rules,
                *(f"{row.percentage(c):.1f}%" for c in TABLE4_COMPONENTS),
                _ms(row.total),
            )
        )
    headers = ("R_rs", *TABLE4_COMPONENTS, "total (ms)")
    return "Table 4 — compilation time breakdown\n" + _table(headers, body)


def format_fig11(
    fixed_d: list[ExecutionPoint], fixed_rel: list[ExecutionPoint]
) -> str:
    """Figure 11: t_e vs D_rel/D, both variation methods."""
    rows_a = [
        (p.label, f"{p.selectivity:.3f}", p.relevant_facts, p.total_facts, _ms(p.seconds))
        for p in fixed_d
    ]
    rows_b = [
        (p.label, f"{p.selectivity:.3f}", p.relevant_facts, p.total_facts, _ms(p.seconds))
        for p in fixed_rel
    ]
    headers = ("point", "D_rel/D", "D_rel", "D", "t_e (ms)")
    return (
        "Figure 11 — t_e vs relevant-fact fraction\n"
        "(a) D fixed, D_rel varied by query root:\n"
        + _table(headers, rows_a)
        + "\n(b) D_rel fixed, D grows with the relation:\n"
        + _table(headers, rows_b)
    )


def format_fig12(points: list[ExecutionPoint]) -> str:
    """Figure 12: naive vs semi-naive t_e with the slowdown ratio."""
    naive = {p.label: p for p in points if p.strategy == "naive"}
    seminaive = {p.label: p for p in points if p.strategy == "seminaive"}
    rows = []
    for label in sorted(naive, key=lambda l: seminaive[l].selectivity):
        n, s = naive[label], seminaive[label]
        ratio = n.seconds / s.seconds if s.seconds else float("inf")
        rows.append(
            (
                label,
                f"{s.selectivity:.3f}",
                _ms(n.seconds),
                _ms(s.seconds),
                f"{ratio:.2f}x",
            )
        )
    from .ascii_plot import plot_execution_points

    return (
        "Figure 12 — naive vs semi-naive LFP evaluation\n"
        + _table(
            ("point", "D_rel/D", "naive (ms)", "semi-naive (ms)", "naive/semi"),
            rows,
        )
        + "\n\n"
        + plot_execution_points(points, "Figure 12 (plotted)")
    )


def format_table5(rows: list[LfpBreakdownRow]) -> str:
    """Table 5: LFP phase breakdown per strategy."""
    body = []
    for row in rows:
        body.append(
            (
                row.strategy,
                *(f"{row.phase_percentage(p):.1f}%" for p in LFP_PHASES),
                _ms(row.total_seconds),
            )
        )
    headers = ("strategy", *LFP_PHASES, "LFP total (ms)")
    return "Table 5 — LFP evaluation phase breakdown\n" + _table(headers, body)


def format_fig13(points: list[ExecutionPoint]) -> str:
    """Figure 13: t_e vs selectivity, optimization on/off, per strategy."""
    rows = []
    for point in sorted(
        points, key=lambda p: (p.strategy, p.selectivity, p.optimized)
    ):
        rows.append(
            (
                point.strategy,
                "magic" if point.optimized else "plain",
                f"{point.selectivity:.3f}",
                _ms(point.seconds),
                point.answers,
            )
        )
    text = "Figure 13 — magic sets vs selectivity\n" + _table(
        ("strategy", "mode", "D_rel/D", "t_e (ms)", "answers"), rows
    )
    for strategy in sorted({p.strategy for p in points}):
        crossover = find_crossover(points, strategy)
        pretty = f"{crossover:.2f}" if crossover is not None else "none observed"
        text += f"\ncrossover selectivity ({strategy}): {pretty}"
    from .ascii_plot import plot_execution_points

    seminaive = [p for p in points if p.strategy == "seminaive"]
    if seminaive:
        text += "\n\n" + plot_execution_points(
            seminaive, "Figure 13 (plotted, semi-naive)"
        )
    return text


def format_fig14(points: list[ExecutionPoint]) -> str:
    """Figure 14: magic-rules vs modified-rules LFP times (optimized runs)."""
    rows = []
    for point in sorted(points, key=lambda p: p.selectivity):
        if not point.optimized or point.strategy != "seminaive":
            continue
        magic_seconds = sum(
            s for label, s in point.node_seconds.items() if label.startswith("m_")
        )
        modified_seconds = sum(
            s
            for label, s in point.node_seconds.items()
            if not label.startswith("m_")
        )
        rows.append(
            (
                point.label,
                f"{point.selectivity:.3f}",
                _ms(magic_seconds),
                _ms(modified_seconds),
            )
        )
    return "Figure 14 — magic vs modified rules LFP time (semi-naive)\n" + _table(
        ("point", "D_rel/D", "magic LFP (ms)", "modified LFP (ms)"), rows
    )


def format_fig15(points: list[UpdatePoint]) -> str:
    """Figure 15: t_u vs R_s, with and without compiled rule storage."""
    rows = [
        (
            "compiled" if p.compiled_storage else "source-only",
            p.stored_rules,
            _ms(p.seconds),
        )
        for p in sorted(points, key=lambda p: (not p.compiled_storage, p.stored_rules))
    ]
    from .ascii_plot import ascii_plot

    series: dict[str, list[tuple[float, float]]] = {}
    for point in points:
        name = "compiled" if point.compiled_storage else "source-only"
        series.setdefault(name, []).append(
            (float(point.stored_rules), point.seconds * 1000.0)
        )
    for values in series.values():
        values.sort()
    return (
        "Figure 15 — update time vs stored rules R_s\n"
        + _table(("storage", "R_s", "t_u (ms)"), rows)
        + "\n\n"
        + ascii_plot(
            series,
            title="Figure 15 (plotted)",
            x_label="R_s",
            y_label="t_u ms",
        )
    )


UPDATE_COMPONENTS = ("extract", "closure", "typecheck", "store")


def format_table8(points: list[UpdatePoint]) -> str:
    """Table 8: update-time breakdown per (R_w, R_s) configuration."""
    rows = []
    for point in points:
        rows.append(
            (
                point.workspace_rules,
                point.stored_rules,
                *(f"{point.percentage(c):.1f}%" for c in UPDATE_COMPONENTS),
                _ms(point.seconds),
            )
        )
    headers = ("R_w", "R_s", *UPDATE_COMPONENTS, "t_u (ms)")
    return "Table 8 — update time breakdown\n" + _table(headers, rows)


def format_ablation(points: list[AblationPoint]) -> str:
    """Ablation: LFP strategies vs the in-DBMS operators."""
    baseline = next((p for p in points if p.strategy == "seminaive"), None)
    rows = []
    for point in points:
        speedup = (
            f"{baseline.seconds / point.seconds:.2f}x"
            if baseline and point.seconds
            else "-"
        )
        rows.append((point.strategy, _ms(point.seconds), point.answers, speedup))
    return (
        "Ablation — application-program LFP vs in-DBMS operators\n"
        + _table(("strategy", "t_e (ms)", "answers", "vs semi-naive"), rows)
    )


def format_cte_ab(points) -> str:
    """CTE vs loop A/B: semi-naive iteration vs one recursive-CTE statement."""
    rows = []
    for point in sorted(points, key=lambda p: p.selectivity):
        rows.append(
            (
                point.label,
                f"{point.selectivity:.3f}",
                _ms(point.loop_seconds),
                _ms(point.cte_seconds),
                f"{point.speedup:.2f}x",
                point.loop_iterations,
                point.cte_strategy,
                point.answers,
            )
        )
    return "CTE A/B — semi-naive loop vs one WITH RECURSIVE statement\n" + _table(
        (
            "point",
            "D_rel/D",
            "loop (ms)",
            "cte (ms)",
            "speedup",
            "loop iters",
            "cte path",
            "answers",
        ),
        rows,
    )


def format_engine_ab(points) -> str:
    """Engine vs engine: the same workload on every importable backend."""
    rows = [
        (
            point.backend,
            point.label,
            f"{point.selectivity:.3f}",
            _ms(point.seconds),
            point.answers,
            point.strategy,
        )
        for point in sorted(points, key=lambda p: (p.backend, p.selectivity))
    ]
    return "Engine A/B — identical workload per SQL backend\n" + _table(
        ("backend", "point", "D_rel/D", "t_e (ms)", "answers", "strategy"),
        rows,
    )


def find_maintenance_crossover(points) -> int | None:
    """Smallest batch size where incremental maintenance stops winning.

    Returns ``None`` when incremental maintenance beats full recompute at
    every measured batch size.
    """
    for point in sorted(points, key=lambda p: p.batch_size):
        if point.speedup < 1.0:
            return point.batch_size
    return None


def format_maintenance(points) -> str:
    """Incremental view maintenance vs full recompute, per batch size."""
    rows = []
    for point in sorted(points, key=lambda p: p.batch_size):
        rows.append(
            (
                point.batch_size,
                _ms(point.incremental_seconds),
                _ms(point.recompute_seconds),
                f"{point.speedup:.2f}x",
                point.incremental_tuples,
                point.view_rows,
                point.base_rows,
            )
        )
    text = (
        "View maintenance — delta propagation vs full recompute (ancestor)\n"
        + _table(
            (
                "batch",
                "incremental (ms)",
                "recompute (ms)",
                "speedup",
                "Δ tuples",
                "view rows",
                "base rows",
            ),
            rows,
        )
    )
    crossover = find_maintenance_crossover(points)
    pretty = str(crossover) if crossover is not None else "none observed"
    text += f"\ncrossover batch size: {pretty}"
    return text


def write_bench_json(path: str, name: str, rows: Iterable[object], **meta) -> str:
    """Dump one experiment's points as a JSON report (for CI artifacts).

    ``rows`` may be dataclass instances or plain mappings.  Returns the
    path written.
    """
    payload = {
        "name": name,
        "meta": dict(meta),
        "rows": [
            dataclasses.asdict(row) if dataclasses.is_dataclass(row) else dict(row)
            for row in rows
        ],
    }
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return path


def write_trace_json(path: str, tracer, name: str, **meta) -> str:
    """Dump a tracer's span tree as a Chrome trace beside the bench reports.

    ``tracer`` is a :class:`repro.obs.Tracer`; the written file loads in
    ``chrome://tracing`` / Perfetto and in ``json.loads``.  Returns the path
    written.
    """
    from ..obs.export import write_chrome_trace

    return write_chrome_trace(path, tracer, metadata={"name": name, **meta})
