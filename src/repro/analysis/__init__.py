"""Rule-base static analysis: a collect-all diagnostics engine.

The paper's Semantic Checker (section 3.2.4) fails fast — one problem per
compile attempt.  This package is the standing analysis layer the deferred
"future work" checks point at: :func:`analyze` runs every registered lint
pass over a program (safety, stratification, types, reachability,
redundancy, adornment trouble, compiled-join-structure trouble) and returns
one :class:`DiagnosticReport` carrying *all* findings, each with a stable
``DK``-prefixed code, a severity, a clause locus, and a fix hint.

The Semantic Checker itself now runs through this engine
(:mod:`repro.km.semantic`), keeping its fail-fast contract by raising from
an error-severity report; ``python -m repro lint`` and the REPL's ``:lint``
command expose the full collect-all behaviour.
"""

from .codes import CATALOG
from .diagnostics import Diagnostic, DiagnosticReport, Severity
from .engine import (
    PARTITION_PASSES,
    SEMANTIC_PASSES,
    AnalysisConfig,
    AnalysisContext,
    analysis_pass,
    analyze,
    registered_passes,
    run_passes,
)

__all__ = [
    "CATALOG",
    "PARTITION_PASSES",
    "SEMANTIC_PASSES",
    "AnalysisConfig",
    "AnalysisContext",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "analysis_pass",
    "analyze",
    "registered_passes",
    "run_passes",
]
