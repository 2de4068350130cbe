"""A Prometheus text-exposition ``/metrics`` endpoint over MetricsRegistry.

The registry's dotted instrument names (``server.request_seconds``) map to
Prometheus family names (``server_request_seconds``); counters get the
conventional ``_total`` suffix; histograms expand to the
``_bucket{le=...}`` / ``_sum`` / ``_count`` triple with cumulative bucket
counts.  Every family is emitted with one ``# HELP`` and one ``# TYPE``
line even when several labeled sources contribute samples, and label
values are escaped per the exposition-format rules (backslash, quote,
newline).

The exporter itself is a tiny ``ThreadingHTTPServer`` on a **side port**:
it shares nothing with the serving hot path but the registry objects it
reads, so serving cost with the exporter disabled is literally zero — the
server never constructs one — and with it enabled is one snapshot walk
per scrape, not per request.

``collectors`` close the "metrics that live elsewhere" gap: a collector
is called at scrape time and returns extra samples (for example per-shard
replica lag computed by the cluster router), so sources that are not
registries still show up without bespoke plumbing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Iterable, Mapping, Optional, Sequence

from ..metrics import MetricsRegistry

__all__ = [
    "MetricSample",
    "MetricsExporter",
    "escape_label_value",
    "prometheus_name",
    "render_metrics",
]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def prometheus_name(name: str) -> str:
    """A registry instrument name as a Prometheus family name.

    Dots (the registry's namespacing convention) and any other character
    outside ``[a-zA-Z0-9_:]`` become underscores; a leading digit gets an
    underscore prefix.
    """
    cleaned = "".join(
        ch if ch.isalnum() or ch in "_:" else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned or "_"


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """Prometheus-friendly number: integral floats render without ``.0``."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _labels_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


@dataclass(frozen=True)
class MetricSample:
    """One exported sample: a family plus this sample's labels and value.

    ``kind`` is the family's TYPE (``counter`` / ``gauge``); collectors
    emit these directly, registries are expanded into them.
    """

    family: str
    value: float
    labels: Mapping[str, str] = field(default_factory=dict)
    kind: str = "gauge"
    help: str = ""


def _registry_samples(
    labels: Mapping[str, str], registry: MetricsRegistry
) -> Iterable[tuple[str, str, str, str, Mapping[str, str], float]]:
    """Flatten one registry into (family, kind, help, suffix, labels, value).

    ``suffix`` distinguishes the histogram sub-series (``_bucket`` etc.);
    plain counters/gauges use the empty suffix.
    """
    snapshot_labels = dict(labels)
    for name, counter in sorted(registry.counters.items()):
        family = prometheus_name(name) + "_total"
        yield family, "counter", f"repro counter {name}", "", snapshot_labels, counter.value
    for name, gauge in sorted(registry.gauges.items()):
        family = prometheus_name(name)
        yield family, "gauge", f"repro gauge {name}", "", snapshot_labels, gauge.value
    for name, histogram in sorted(registry.histograms.items()):
        family = prometheus_name(name)
        help_text = f"repro histogram {name}"
        cumulative = 0
        for index, bound in enumerate(histogram.bounds):
            cumulative += histogram.bucket_counts[index]
            bucket_labels = dict(snapshot_labels)
            bucket_labels["le"] = _format_value(bound)
            yield family, "histogram", help_text, "_bucket", bucket_labels, float(cumulative)
        inf_labels = dict(snapshot_labels)
        inf_labels["le"] = "+Inf"
        yield family, "histogram", help_text, "_bucket", inf_labels, float(histogram.count)
        yield family, "histogram", help_text, "_sum", snapshot_labels, histogram.total
        yield family, "histogram", help_text, "_count", snapshot_labels, float(histogram.count)


def render_metrics(
    sources: Sequence[tuple[Mapping[str, str], MetricsRegistry]],
    collectors: Sequence[Callable[[], Sequence[MetricSample]]] = (),
    help_overrides: Optional[Mapping[str, str]] = None,
) -> str:
    """Render every source and collector as one exposition-format page.

    Samples are grouped by family so ``# HELP`` / ``# TYPE`` appear exactly
    once per family even when several labeled sources contribute, which is
    what a conforming parser requires.
    """
    overrides = help_overrides or {}
    # family -> (kind, help, [(suffix, labels, value), ...]) in first-seen
    # family order (stable output, stable diffs).
    families: dict[str, tuple[str, str, list[tuple[str, Mapping[str, str], float]]]] = {}

    def add(
        family: str, kind: str, help_text: str, suffix: str,
        labels: Mapping[str, str], value: float,
    ) -> None:
        entry = families.get(family)
        if entry is None:
            entry = (kind, overrides.get(family, help_text), [])
            families[family] = entry
        entry[2].append((suffix, labels, value))

    for labels, registry in sources:
        for family, kind, help_text, suffix, sample_labels, value in _registry_samples(
            labels, registry
        ):
            add(family, kind, help_text, suffix, sample_labels, value)
    for collector in collectors:
        for sample in collector():
            family = prometheus_name(sample.family)
            if sample.kind == "counter" and not family.endswith("_total"):
                family += "_total"
            add(
                family,
                sample.kind,
                sample.help or f"repro {sample.kind} {sample.family}",
                "",
                sample.labels,
                sample.value,
            )

    lines: list[str] = []
    for family, (kind, help_text, samples) in families.items():
        lines.append(f"# HELP {family} {help_text}")
        lines.append(f"# TYPE {family} {kind}")
        for suffix, labels, value in samples:
            lines.append(
                f"{family}{suffix}{_labels_text(labels)} {_format_value(value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


class _MetricsHandler(BaseHTTPRequestHandler):
    """GET /metrics -> the rendered page; anything else -> 404."""

    server: "_ExporterHttpServer"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path.split("?", 1)[0] not in ("/metrics", "/"):
            self.send_error(404, "only /metrics lives here")
            return
        try:
            body = self.server.exporter.render().encode("utf-8")
        except Exception as error:  # pragma: no cover - defensive
            self.send_error(500, f"{type(error).__name__}: {error}")
            return
        self.send_response(200)
        self.send_header("Content-Type", CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        """Scrapes are periodic; keep them off stderr."""


class _ExporterHttpServer(ThreadingHTTPServer):
    allow_reuse_address = True
    daemon_threads = True
    exporter: "MetricsExporter"


class MetricsExporter:
    """Serves one or more labeled registries on an HTTP side port.

    Args:
        host: bind address.
        port: bind port (``0`` = ephemeral; see :attr:`address`).
        help_overrides: family name -> HELP text replacements.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        help_overrides: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.help_overrides = dict(help_overrides or {})
        self._lock = threading.Lock()
        self._sources: list[tuple[dict[str, str], MetricsRegistry]] = []  # guarded-by: _lock
        self._collectors: list[Callable[[], Sequence[MetricSample]]] = []  # guarded-by: _lock
        self._refreshers: list[Callable[[], None]] = []  # guarded-by: _lock
        self._http = _ExporterHttpServer((host, port), _MetricsHandler)
        self._http.exporter = self
        self._thread: Optional[threading.Thread] = None

    # -- composition -------------------------------------------------------

    def add_source(
        self, registry: MetricsRegistry, labels: Optional[Mapping[str, str]] = None
    ) -> "MetricsExporter":
        """Export ``registry``'s instruments, stamped with ``labels``."""
        with self._lock:
            self._sources.append((dict(labels or {}), registry))
        return self

    def add_collector(
        self, collector: Callable[[], Sequence[MetricSample]]
    ) -> "MetricsExporter":
        """Call ``collector`` at scrape time for extra samples."""
        with self._lock:
            self._collectors.append(collector)
        return self

    def add_refresher(self, refresher: Callable[[], None]) -> "MetricsExporter":
        """Run ``refresher`` before each scrape (to update gauges)."""
        with self._lock:
            self._refreshers.append(refresher)
        return self

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """One exposition-format page over every source and collector."""
        with self._lock:
            sources = list(self._sources)
            collectors = list(self._collectors)
            refreshers = list(self._refreshers)
        for refresher in refreshers:
            refresher()
        return render_metrics(
            sources, collectors, help_overrides=self.help_overrides
        )

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` to the real port."""
        host, port = self._http.server_address[:2]
        return str(host), int(port)

    def start(self) -> "MetricsExporter":
        """Serve scrapes from a background thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("exporter already started")
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="dkb-metrics-exporter",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        # shutdown() waits for the serve loop: only ask it of a started one.
        if self._thread is not None:
            self._http.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._http.server_close()

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
