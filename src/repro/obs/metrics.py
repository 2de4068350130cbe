"""A small metrics registry: counters, gauges, histograms.

The registry is deliberately tiny — named instruments with a ``snapshot()``
that returns plain dict/float structures (JSON-friendly, assert-friendly)
and a ``render()`` for the REPL ``:stats`` command.  The interesting
testbed metrics (statement-cache hit rate, tuples per LFP iteration, rows
scanned) are all derivable from the instruments the tracer feeds.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "REQUEST_SECONDS_BUCKETS",
]

# Upper bounds (seconds) sized for SQLite statement latencies.
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = (
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
    10.0,
)

# Upper bounds (seconds) sized for served requests, 0.1 ms to 30 s in
# 1/2.5/5 steps: a result-cache hit takes about 0.3 ms, so the decades of
# DEFAULT_SECONDS_BUCKETS would put every hit in one bucket.  A scraper
# derives windowed quantiles from these, e.g.
# ``histogram_quantile(0.95, rate(server_request_seconds_bucket[5s]))``.
REQUEST_SECONDS_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Cumulative bucket histogram with count and sum."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.bounds: tuple[float, ...] = tuple(
            bounds if bounds is not None else DEFAULT_SECONDS_BUCKETS
        )
        # One count per bound plus the overflow bucket.
        self.bucket_counts: list[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name, bounds)
        return instrument

    def snapshot(self) -> dict[str, object]:
        """JSON-friendly view of every instrument."""
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.total,
                    "mean": h.mean,
                    "buckets": dict(zip([*map(str, h.bounds), "+inf"], h.bucket_counts)),
                }
                for name, h in sorted(self.histograms.items())
            },
        }

    def render(self) -> str:
        """Plain-text snapshot for the REPL ``:stats`` command."""
        lines: list[str] = []
        if self.counters:
            lines.append("counters:")
            for name, counter in sorted(self.counters.items()):
                value = counter.value
                text = f"{value:g}" if isinstance(value, float) else str(value)
                lines.append(f"  {name} = {text}")
            hits = self.counters.get("dbms.statement_cache.hits")
            misses = self.counters.get("dbms.statement_cache.misses")
            if hits is not None or misses is not None:
                attempts = (hits.value if hits else 0) + (misses.value if misses else 0)
                if attempts:
                    rate = (hits.value if hits else 0) / attempts
                    lines.append(f"  dbms.statement_cache.hit_rate = {rate:.1%}")
        if self.gauges:
            lines.append("gauges:")
            for name, gauge in sorted(self.gauges.items()):
                lines.append(f"  {name} = {gauge.value:g}")
        if self.histograms:
            lines.append("histograms:")
            for name, histogram in sorted(self.histograms.items()):
                # Only second-valued histograms get a unit; others (e.g.
                # lfp.delta_tuples) are plain numbers.
                unit = "s" if name.endswith("seconds") else ""
                lines.append(
                    f"  {name}: count={histogram.count} "
                    f"sum={histogram.total:.6f}{unit} mean={histogram.mean:.6f}{unit}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"
