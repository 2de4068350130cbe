"""Unit tests for the ASCII plot helper."""

from repro.bench.ascii_plot import MARKERS, ascii_plot


class TestAsciiPlot:
    def test_markers_land_at_the_extremes(self):
        plot = ascii_plot(
            {"s": [(0.0, 0.0), (1.0, 1.0)]}, width=10, height=5
        )
        lines = plot.splitlines()
        grid = [line[1:] for line in lines if line.startswith("|")]
        assert grid[0][-1] == "*"  # (1,1): top right
        assert grid[-1][0] == "*"  # (0,0): bottom left

    def test_multiple_series_get_distinct_markers(self):
        plot = ascii_plot(
            {"a": [(0, 0)], "b": [(1, 1)], "c": [(0.5, 0.5)]},
            width=12,
            height=5,
        )
        for marker in MARKERS[:3]:
            assert marker in plot

    def test_legend_and_ranges(self):
        plot = ascii_plot(
            {"only": [(2.0, 10.0), (4.0, 30.0)]},
            title="T",
            x_label="sel",
            y_label="ms",
        )
        assert "T" in plot
        assert "* only" in plot
        assert "sel: 2 .. 4" in plot
        assert "top = 30" in plot

    def test_degenerate_inputs(self):
        # One point and empty series must not divide by zero.
        assert ascii_plot({"p": [(1.0, 1.0)]})
        assert ascii_plot({})
        assert ascii_plot({"empty": []})

    def test_flat_series(self):
        plot = ascii_plot({"flat": [(0, 5.0), (1, 5.0), (2, 5.0)]}, height=4)
        # All markers on one grid row (exclude the legend line).
        rows_with_markers = [
            line
            for line in plot.splitlines()
            if line.startswith("|") and "*" in line
        ]
        assert len(rows_with_markers) == 1

