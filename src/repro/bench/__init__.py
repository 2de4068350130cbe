"""The experiment harness regenerating the paper's evaluation (section 5.3).

One :class:`Experiment` spec per figure or table (:mod:`repro.bench.specs`,
registered in :data:`SPECS`), one runner (:func:`run`) returning a plain
dict per (point, lever), one JSONL writer (:func:`append_jsonl`) and one
formatter (:func:`format_table`).  ``benchmarks/`` runs the specs and
asserts the paper's qualitative shapes; ``python -m repro.bench FILE.jsonl``
prints the latest table of every experiment in a report file.
"""

from .experiment import (
    ROW_KEYS,
    Experiment,
    Sample,
    append_jsonl,
    format_table,
    latest,
    read_jsonl,
    report,
    run,
)
from .specs import SPECS

__all__ = [
    "ROW_KEYS",
    "SPECS",
    "Experiment",
    "Sample",
    "append_jsonl",
    "format_table",
    "latest",
    "read_jsonl",
    "report",
    "run",
]
