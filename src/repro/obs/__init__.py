"""Structured observability: span tracing, metrics, and plan capture.

This package is the testbed's measurement layer (ISSUE 4).  It is imported
by the DBMS engine for its record types, so it must stay dependency-free
within the repo: nothing here imports from :mod:`repro.dbms`,
:mod:`repro.km`, or :mod:`repro.runtime`.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .plans import CapturedPlan, PlanCapture
from .trace import Span, StatementRecord, Tracer
from .export import chrome_trace_events, render_span_tree, write_chrome_trace
from .timings import TimingsMapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CapturedPlan",
    "PlanCapture",
    "Span",
    "StatementRecord",
    "Tracer",
    "chrome_trace_events",
    "render_span_tree",
    "write_chrome_trace",
    "TimingsMapping",
]
