"""Minimal ASCII scatter/line plots for the figure benchmarks.

The paper presents its results as figures; a spec that names a plot gets
one under its table (:func:`repro.bench.experiment.report`), so the shapes
(flat curves, crossovers, knees) are visible at a glance in the bench
output.
"""

from __future__ import annotations

from typing import Mapping, Sequence

Point = tuple[float, float]

MARKERS = "*o+x#@%&"


def ascii_plot(
    series: Mapping[str, Sequence[Point]],
    width: int = 64,
    height: int = 14,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render named point series on one shared-axis character grid.

    Args:
        series: name -> [(x, y), ...]; each series gets its own marker.
        width/height: plot area size in characters.
        title, x_label, y_label: annotations.

    Returns:
        The plot as a multi-line string (empty-series input included — an
        axis box is still drawn).
    """
    points = [(x, y) for pts in series.values() for (x, y) in pts]
    if points:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        x_low, x_high = min(xs), max(xs)
        y_low, y_high = min(ys), max(ys)
    else:
        x_low = y_low = 0.0
        x_high = y_high = 1.0
    if x_high == x_low:
        x_high = x_low + 1.0
    if y_high == y_low:
        y_high = y_low + 1.0

    grid = [[" "] * width for __ in range(height)]

    def place(x: float, y: float, marker: str) -> None:
        column = round((x - x_low) / (x_high - x_low) * (width - 1))
        row = round((y - y_low) / (y_high - y_low) * (height - 1))
        grid[height - 1 - row][column] = marker

    legend: list[str] = []
    for index, (name, pts) in enumerate(series.items()):
        marker = MARKERS[index % len(MARKERS)]
        legend.append(f"{marker} {name}")
        for x, y in pts:
            place(x, y, marker)

    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(f"{y_label} (top = {y_high:.4g}, bottom = {y_low:.4g})")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(
        f" {x_label}: {x_low:.4g} .. {x_high:.4g}    " + "   ".join(legend)
    )
    return "\n".join(lines)

