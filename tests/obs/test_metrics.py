"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import math

import pytest

from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    REQUEST_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        gauge.set(1.0)
        assert gauge.value == 1.0


class TestHistogram:
    def test_observations_land_in_buckets(self):
        histogram = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(55.5)
        # bucket_counts has one overflow slot past the last bound.
        assert list(histogram.bucket_counts) == [1, 1, 1]
        assert histogram.mean == pytest.approx(55.5 / 3)

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram("h").mean == 0.0

    def test_value_on_a_bound_lands_in_that_bucket(self):
        # Buckets are "less than or equal": le="1" counts an exact 1.0.
        histogram = Histogram("h", bounds=(1.0, 10.0))
        histogram.observe(1.0)
        histogram.observe(10.0)
        assert list(histogram.bucket_counts) == [1, 1, 0]

    def test_values_above_the_last_bound_overflow(self):
        histogram = Histogram("h", bounds=(1.0,))
        for value in (1.5, 1e9):
            histogram.observe(value)
        assert list(histogram.bucket_counts) == [0, 2]
        assert histogram.count == 2

    def test_default_bounds_are_the_statement_buckets(self):
        assert Histogram("h").bounds == DEFAULT_SECONDS_BUCKETS

    def test_bounds_are_copied_at_construction(self):
        bounds = [1.0, 2.0]
        histogram = Histogram("h", bounds=bounds)
        bounds.append(3.0)
        assert histogram.bounds == (1.0, 2.0)
        assert len(histogram.bucket_counts) == 3


class TestRequestSecondsBuckets:
    """The bounds of the two served-request histograms."""

    def test_bounds_strictly_increase(self):
        assert all(
            low < high
            for low, high in zip(REQUEST_SECONDS_BUCKETS, REQUEST_SECONDS_BUCKETS[1:])
        )

    def test_span_a_tenth_of_a_millisecond_to_thirty_seconds(self):
        assert REQUEST_SECONDS_BUCKETS[0] == 0.0001
        assert REQUEST_SECONDS_BUCKETS[-1] == 30.0

    def test_mantissas_step_one_two_and_a_half_five(self):
        for bound in REQUEST_SECONDS_BUCKETS[:-1]:
            mantissa = bound / 10 ** math.floor(math.log10(bound))
            assert mantissa == pytest.approx(1.0) or mantissa == pytest.approx(
                2.5
            ) or mantissa == pytest.approx(5.0), bound

    def test_sub_millisecond_bounds_separate_hits_from_fast_misses(self):
        # A result-cache hit (~0.3 ms) and a fast miss (~0.8 ms) share the
        # 1 ms decade of the statement buckets but not a request bucket.
        def bucket_of(bounds, value):
            histogram = Histogram("h", bounds=bounds)
            histogram.observe(value)
            return histogram.bucket_counts.index(1)

        assert bucket_of(DEFAULT_SECONDS_BUCKETS, 0.0003) == bucket_of(
            DEFAULT_SECONDS_BUCKETS, 0.0008
        )
        assert bucket_of(REQUEST_SECONDS_BUCKETS, 0.0003) != bucket_of(
            REQUEST_SECONDS_BUCKETS, 0.0008
        )

    def test_statement_buckets_stay_decades(self):
        assert DEFAULT_SECONDS_BUCKETS == (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("depth").set(2.0)
        registry.histogram("lat", bounds=(0.1,)).observe(0.05)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"hits": 3}
        assert snapshot["gauges"] == {"depth": 2.0}
        assert snapshot["histograms"]["lat"]["count"] == 1
        assert snapshot["histograms"]["lat"]["sum"] == pytest.approx(0.05)

    def test_render_includes_cache_hit_rate(self):
        registry = MetricsRegistry()
        registry.counter("dbms.statement_cache.hits").inc(3)
        registry.counter("dbms.statement_cache.misses").inc(1)
        text = registry.render()
        assert "dbms.statement_cache.hit_rate" in text
        assert "75.0%" in text

    def test_render_without_counters_is_stable(self):
        assert "(no metrics recorded)" in MetricsRegistry().render()

    def test_first_bounds_win(self):
        registry = MetricsRegistry()
        first = registry.histogram("server.request_seconds", REQUEST_SECONDS_BUCKETS)
        again = registry.histogram("server.request_seconds")
        assert again is first
        assert again.bounds == REQUEST_SECONDS_BUCKETS

    def test_snapshot_buckets_end_with_the_overflow(self):
        registry = MetricsRegistry()
        registry.histogram("lat", bounds=(0.1, 1.0)).observe(5.0)
        buckets = registry.snapshot()["histograms"]["lat"]["buckets"]
        assert list(buckets) == ["0.1", "1.0", "+inf"]
        assert buckets["+inf"] == 1

    def test_render_gives_a_unit_only_to_seconds_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("q.seconds", bounds=(1.0,)).observe(0.5)
        registry.histogram("lfp.delta_tuples", bounds=(10.0,)).observe(4)
        lines = registry.render().splitlines()
        seconds = next(line for line in lines if "q.seconds" in line)
        tuples = next(line for line in lines if "lfp.delta_tuples" in line)
        assert "sum=0.500000s" in seconds
        assert "sum=4.000000 " in tuples and not tuples.endswith("s")

    def test_render_without_cache_counters_has_no_hit_rate(self):
        registry = MetricsRegistry()
        registry.counter("server.requests").inc(2)
        assert "hit_rate" not in registry.render()


def window(before: dict, after: dict, name: str) -> dict[str, int]:
    """Per-bucket observations between two snapshots of histogram ``name``.

    This is what a scraper's ``rate(..._bucket[w])`` sees: the increase of
    each bucket over the window.
    """
    old = before["histograms"][name]["buckets"]
    new = after["histograms"][name]["buckets"]
    return {bound: new[bound] - old[bound] for bound in new}


def quantile(buckets: dict[str, int], fraction: float) -> float:
    """``histogram_quantile``: linear interpolation inside the bucket that
    holds the target rank; the overflow bucket reports the last bound."""
    bounds = [float(bound) for bound in buckets if bound != "+inf"]
    counts = list(buckets.values())
    rank = fraction * sum(counts)
    seen = 0
    for index, count in enumerate(counts):
        if count and seen + count >= rank:
            if index == len(bounds):
                return bounds[-1]
            low = bounds[index - 1] if index else 0.0
            return low + (bounds[index] - low) * (rank - seen) / count
        seen += count
    return 0.0


class TestWindowsFromSnapshots:
    """A windowed view is the difference of two cumulative snapshots."""

    def test_snapshot_is_a_point_in_time_copy(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", bounds=(1.0,))
        registry.counter("hits").inc()
        histogram.observe(0.5)
        before = registry.snapshot()
        histogram.observe(0.5)
        registry.counter("hits").inc()
        assert before["histograms"]["lat"]["buckets"]["1.0"] == 1
        assert before["histograms"]["lat"]["count"] == 1
        assert before["counters"]["hits"] == 1

    def test_window_p95_sees_only_the_window(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("req", REQUEST_SECONDS_BUCKETS)
        for _ in range(2000):
            histogram.observe(0.0003)  # a long quiet stretch of cache hits
        before = registry.snapshot()
        for _ in range(19):
            histogram.observe(0.0003)
        histogram.observe(0.2)  # then a slow window: p95 lands in it
        for _ in range(20):
            histogram.observe(0.4)
        after = registry.snapshot()
        cumulative = after["histograms"]["req"]["buckets"]
        assert quantile(cumulative, 0.95) <= 0.0005  # the slow tail hides
        windowed = window(before, after, "req")
        assert sum(windowed.values()) == 40
        assert 0.25 < quantile(windowed, 0.95) <= 0.5

    def test_window_hit_rate_from_counter_deltas(self):
        registry = MetricsRegistry()
        hits, misses = registry.counter("hits"), registry.counter("misses")
        hits.inc(90)
        misses.inc(10)
        before = registry.snapshot()["counters"]
        hits.inc(1)
        misses.inc(3)
        after = registry.snapshot()["counters"]
        window_hits = after["hits"] - before["hits"]
        window_misses = after["misses"] - before["misses"]
        assert window_hits / (window_hits + window_misses) == 0.25

    def test_overflow_window_reports_the_last_bound(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("req", REQUEST_SECONDS_BUCKETS)
        before = registry.snapshot()
        histogram.observe(120.0)
        after = registry.snapshot()
        assert quantile(window(before, after, "req"), 0.5) == 30.0
