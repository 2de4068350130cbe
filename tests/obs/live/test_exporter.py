"""Tests for the Prometheus text-exposition renderer and HTTP exporter."""

import re
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.live.exporter import (
    CONTENT_TYPE,
    MetricSample,
    MetricsExporter,
    escape_label_value,
    prometheus_name,
    render_metrics,
)
from repro.obs.metrics import REQUEST_SECONDS_BUCKETS, MetricsRegistry

#: One exposition-format sample line: name, optional labels, value.
SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\")*\})?"
    r" (?:[-+]?[0-9.eE+-]+|NaN|[+-]Inf)$"
)


def closes_within(closeable, seconds: float = 2.0) -> bool:
    """Run ``closeable.close()`` on a daemon thread; did it return in time?"""
    closer = threading.Thread(target=closeable.close, daemon=True)
    closer.start()
    closer.join(seconds)
    return not closer.is_alive()


def parse_families(text: str) -> dict[str, dict]:
    """Parse an exposition page into {family: {help, type, samples}}.

    Raises on any line that is neither a comment nor a well-formed sample,
    and on HELP/TYPE lines appearing more than once per family.
    """
    families: dict[str, dict] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            _, keyword, family, rest = line.split(" ", 3)
            entry = families.setdefault(
                family, {"help": None, "type": None, "samples": []}
            )
            assert entry[keyword.lower()] is None, (
                f"duplicate # {keyword} for {family}"
            )
            entry[keyword.lower()] = rest
            continue
        assert SAMPLE_LINE.match(line), f"unparseable line: {line!r}"
        name = re.split(r"[{ ]", line, 1)[0]
        value = float(line.rsplit(" ", 1)[1].replace("Inf", "inf"))
        # A histogram's _bucket/_sum/_count series belong to the bare family.
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        owner = family if family in families else name
        assert owner in families, f"sample before HELP/TYPE: {line!r}"
        families[owner]["samples"].append((line, value))
    return families


class TestNameMapping:
    def test_dots_become_underscores(self):
        assert prometheus_name("server.request_seconds") == (
            "server_request_seconds"
        )

    def test_hostile_characters_are_cleaned(self):
        assert prometheus_name("a-b c/d") == "a_b_c_d"
        assert prometheus_name("9lives") == "_9lives"
        assert prometheus_name("") == "_"


class TestLabelEscaping:
    def test_backslash_quote_newline(self):
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert escape_label_value("two\nlines") == "two\\nlines"

    def test_escaped_labels_render_and_parse(self):
        samples = [
            MetricSample(
                "weird", 1.0, labels={"shard": 'a"b\\c\nd'}, kind="gauge"
            )
        ]
        text = render_metrics([], [lambda: samples])
        families = parse_families(text)
        line = families["weird"]["samples"][0][0]
        assert '\\"' in line and "\\\\" in line and "\\n" in line
        assert "\n" not in line


class TestRenderMetrics:
    def test_counter_gets_total_suffix(self):
        registry = MetricsRegistry()
        registry.counter("server.requests").inc(3)
        families = parse_families(render_metrics([({}, registry)]))
        assert families["server_requests_total"]["type"] == "counter"
        assert families["server_requests_total"]["samples"][0][1] == 3.0

    def test_gauge_renders_plain(self):
        registry = MetricsRegistry()
        registry.gauge("server.dkb_version").set(7.0)
        families = parse_families(render_metrics([({}, registry)]))
        assert families["server_dkb_version"]["type"] == "gauge"
        assert families["server_dkb_version"]["samples"][0][1] == 7.0

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 1.6, 99.0):
            histogram.observe(value)
        families = parse_families(render_metrics([({}, registry)]))
        assert families["lat"]["type"] == "histogram"
        lines = {
            line.rsplit(" ", 1)[0]: value
            for line, value in families["lat"]["samples"]
        }
        assert lines['lat_bucket{le="1"}'] == 1.0
        assert lines['lat_bucket{le="2"}'] == 3.0
        assert lines['lat_bucket{le="+Inf"}'] == 4.0
        assert lines["lat_count"] == 4.0
        assert lines["lat_sum"] == pytest.approx(102.6)

    def test_one_help_and_type_even_with_multiple_sources(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("shard.requests").inc(1)
        right.counter("shard.requests").inc(2)
        text = render_metrics(
            [({"shard": "0"}, left), ({"shard": "1"}, right)]
        )
        assert text.count("# HELP shard_requests_total") == 1
        assert text.count("# TYPE shard_requests_total") == 1
        families = parse_families(text)  # raises on duplicates
        lines = [line for line, _ in families["shard_requests_total"]["samples"]]
        assert 'shard_requests_total{shard="0"} 1' in lines
        assert 'shard_requests_total{shard="1"} 2' in lines

    def test_collector_counter_kind_gets_total(self):
        samples = [
            MetricSample("router.stale_fallbacks", 0.0, kind="counter")
        ]
        families = parse_families(render_metrics([], [lambda: samples]))
        assert families["router_stale_fallbacks_total"]["type"] == "counter"

    def test_help_overrides(self):
        registry = MetricsRegistry()
        registry.gauge("x").set(1.0)
        text = render_metrics(
            [({}, registry)], help_overrides={"x": "custom help"}
        )
        assert "# HELP x custom help" in text

    def test_every_line_parses(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        registry.gauge("c.d").set(-1.5)
        registry.histogram("e.f", bounds=(0.1, 1.0)).observe(0.5)
        parse_families(
            render_metrics(
                [({"role": "server"}, registry)],
                [lambda: [MetricSample("g", 2.0, labels={"k": "v"})]],
            )
        )

    def test_empty_page_is_empty_string(self):
        assert render_metrics([]) == ""

    def test_request_buckets_render_as_le_labels(self):
        registry = MetricsRegistry()
        registry.histogram("server.request_seconds", REQUEST_SECONDS_BUCKETS)
        families = parse_families(render_metrics([({}, registry)]))
        les = re.findall(
            r'le="([^"]+)"',
            " ".join(line for line, _ in families["server_request_seconds"]["samples"]),
        )
        assert les == [
            "0.0001", "0.00025", "0.0005", "0.001", "0.0025", "0.005",
            "0.01", "0.025", "0.05", "0.1", "0.25", "0.5",
            "1", "2.5", "5", "10", "30", "+Inf",
        ]

    def test_bucket_series_is_cumulative_and_ends_at_the_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("req", REQUEST_SECONDS_BUCKETS)
        for step in range(300):
            histogram.observe((step % 37) * 0.0007 + (step % 5) * 0.4)
        families = parse_families(render_metrics([({}, registry)]))
        samples = families["req"]["samples"]
        buckets = [value for line, value in samples if line.startswith("req_bucket")]
        assert buckets == sorted(buckets)
        count = next(value for line, value in samples if line.startswith("req_count"))
        assert buckets[-1] == count == 300

    def test_special_values_render(self):
        samples = [
            MetricSample("nan", float("nan")),
            MetricSample("up", float("inf")),
            MetricSample("down", float("-inf")),
            MetricSample("whole", 3.0),
            MetricSample("half", 0.5),
        ]
        text = render_metrics([], [lambda: samples])
        parse_families(text)
        for line in ("nan NaN", "up +Inf", "down -Inf", "whole 3", "half 0.5"):
            assert line in text.splitlines()


class TestHttpExporter:
    def test_scrape_over_http(self):
        registry = MetricsRegistry()
        registry.counter("demo.requests").inc(5)
        refreshed: list[bool] = []
        exporter = (
            MetricsExporter(port=0)
            .add_source(registry, {"role": "test"})
            .add_refresher(lambda: refreshed.append(True))
        )
        with exporter:
            host, port = exporter.address
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=5.0
            ) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == CONTENT_TYPE
                body = response.read().decode("utf-8")
        assert refreshed  # the refresher ran before the scrape
        families = parse_families(body)
        assert families["demo_requests_total"]["samples"][0][0] == (
            'demo_requests_total{role="test"} 5'
        )

    def test_other_paths_404(self):
        with MetricsExporter(port=0) as exporter:
            host, port = exporter.address
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{host}:{port}/other", timeout=5.0
                )
            assert excinfo.value.code == 404

    def test_double_start_raises(self):
        exporter = MetricsExporter(port=0)
        try:
            exporter.start()
            with pytest.raises(RuntimeError):
                exporter.start()
        finally:
            exporter.close()

    def test_root_path_and_query_string_serve_the_page(self):
        registry = MetricsRegistry()
        registry.counter("demo.requests").inc()
        with MetricsExporter(port=0).add_source(registry) as exporter:
            host, port = exporter.address
            for path in ("/", "/metrics?format=text"):
                with urllib.request.urlopen(
                    f"http://{host}:{port}{path}", timeout=5.0
                ) as response:
                    assert "demo_requests_total 1" in response.read().decode()

    def test_refresher_runs_on_every_scrape(self):
        registry = MetricsRegistry()
        scrapes = iter(range(1, 100))
        exporter = MetricsExporter(port=0).add_source(registry).add_refresher(
            lambda: registry.gauge("scrapes").set(next(scrapes))
        )
        assert "scrapes 1" in exporter.render().splitlines()
        assert "scrapes 2" in exporter.render().splitlines()
        exporter.close()

    def test_close_twice_is_harmless(self):
        exporter = MetricsExporter(port=0).start()
        exporter.close()
        assert closes_within(exporter)

    def test_close_frees_the_port(self):
        exporter = MetricsExporter(port=0)
        host, port = exporter.address
        exporter.close()
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind((host, port))

    def test_close_without_start_returns(self):
        assert closes_within(MetricsExporter(port=0))
