"""Live observability: the ``/metrics`` exporter.

The offline obs layer (:mod:`repro.obs`) exports artifacts after a run;
this package exposes a *serving* system's
:class:`~repro.obs.metrics.MetricsRegistry` while it runs, as a
Prometheus text-exposition ``/metrics`` HTTP endpoint over one or more
labeled registries (:mod:`repro.obs.live.exporter`).  The registry is the
only live instrument: windowed rates and quantiles are the scraper's job,
computed from the cumulative counters and histogram buckets it exports.

Like the rest of :mod:`repro.obs`, nothing here imports from
:mod:`repro.dbms`, :mod:`repro.km`, or :mod:`repro.runtime` — the serving
layers wire themselves in through callbacks.
"""

from .exporter import (
    MetricSample,
    MetricsExporter,
    escape_label_value,
    prometheus_name,
    render_metrics,
)

__all__ = [
    "MetricSample",
    "MetricsExporter",
    "escape_label_value",
    "prometheus_name",
    "render_metrics",
]
