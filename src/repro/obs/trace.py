"""Spans: the testbed's one timing primitive, and the tracer that keeps them.

The paper is a measurement apparatus: every figure in Section 5 is a
breakdown of where compilation and LFP-evaluation time goes.  Every such
number is the :attr:`Span.duration` of one region, opened with
``Database.span(...)`` — the compile and update components, a query's
execution time, the per-node evaluation times, the maintenance seconds.
A span reads the clock twice, on entry and on exit, whether or not anyone
traces it.

Design constraints:

* **One stack.**  The :class:`~repro.dbms.engine.Database` keeps the stack
  of open spans.  Each span carries the Statistics *phase* its statements
  count toward (its own, or its parent's), so entering a measured region
  is one ``with`` for both the clock and the statement attribution.
* **Cheap when untraced.**  With no :class:`Tracer` installed a span is a
  slotted timer on that stack and nothing else; the tree below and the
  statement records exist only for a traced database.
* **No observer effect.**  The tracer itself must never issue counted
  statements; anything it wants to read from SQLite (EXPLAIN plans, delta
  counts) goes through ``Database.observe`` which bypasses both the
  statement cache and :class:`~repro.dbms.engine.Statistics`.
* **Statistics stays a sink.**  ``Database`` feeds the same per-statement
  event to ``Statistics.record`` and (when installed) to
  ``Tracer.on_statement``; the two observers share one stream and cannot
  disagree about what ran.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

from .metrics import MetricsRegistry
from .plans import PlanCapture

__all__ = [
    "DEFAULT_PHASE",
    "Span",
    "StatementRecord",
    "Tracer",
]

#: The Statistics phase of a statement no span names a phase for.
DEFAULT_PHASE = "(none)"

_clock = time.perf_counter


@dataclass(frozen=True)
class StatementRecord:
    """One DBMS statement as seen by the event stream."""

    phase: str
    sql: str
    kind: str
    seconds: float
    rows_fetched: int = 0
    rows_changed: int = 0
    cache_hit: Optional[bool] = None
    parameters: tuple = ()


class Span:
    """A named, timed region: its duration always, a trace node when traced.

    Made by :meth:`repro.dbms.engine.Database.span`; the ``with`` block
    holds it on the database's span stack and times it.
    ``statements`` / ``statement_seconds`` count only statements attributed
    *directly* to this span (not to descendants), so summing them over the
    whole tree equals the total statement count of the traced region; they
    stay zero on an untraced database.
    """

    __slots__ = (
        "name",
        "category",
        "phase",
        "attributes",
        "children",
        "statements",
        "statement_seconds",
        "start",
        "end",
        "_stack",
    )

    def __init__(
        self,
        name: str,
        category: str,
        phase: str,
        attributes: dict[str, Any],
        stack: list["Span"],
    ) -> None:
        self.name = name
        self.category = category
        self.phase = phase
        self.attributes = attributes
        self.children: list[Span] = []
        self.statements = 0
        self.statement_seconds = 0.0
        self.start = 0.0
        self.end: Optional[float] = None
        self._stack = stack

    def __enter__(self) -> "Span":
        self._stack.append(self)
        self.start = _clock()
        return self

    def __exit__(self, exc_type: object, exc: object, traceback: object) -> None:
        self.end = _clock()
        self._stack.pop()

    @property
    def duration(self) -> float:
        """Wall-clock seconds; measured up to *now* while the span is open."""
        end = self.end if self.end is not None else _clock()
        return max(0.0, end - self.start)

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) an attribute on the span."""
        self.attributes[key] = value

    def iter_spans(self) -> Iterator["Span"]:
        """Depth-first pre-order walk of this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.iter_spans()


class Tracer:
    """Collects a forest of spans plus per-statement events and metrics.

    Installed on a :class:`~repro.dbms.engine.Database` (``set_tracer``),
    it is handed every span the database opens (:meth:`adopt`) and every
    statement it runs (:meth:`on_statement`).  One tracer can span many
    queries (e.g. a REPL session with ``:trace on``); each top-level
    operation opens a new root span.  Statements executed while no span is
    open are attributed to a synthetic ``(ambient)`` root so that *every*
    statement belongs to exactly one span.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        capture_plans: bool = True,
        keep_statements: bool = True,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.plans: Optional[PlanCapture] = PlanCapture() if capture_plans else None
        self.keep_statements = keep_statements
        self.epoch = _clock()
        self.roots: list[Span] = []
        self.statements: list[StatementRecord] = []
        self._ambient: Optional[Span] = None

    # ------------------------------------------------------------------ spans

    def adopt(self, span: Span, parent: Optional[Span]) -> None:
        """Link a span the database just opened under ``parent`` (or as a root)."""
        (parent.children if parent is not None else self.roots).append(span)

    @property
    def last_root(self) -> Optional[Span]:
        return self.roots[-1] if self.roots else None

    def _ambient_span(self) -> Span:
        if self._ambient is None:
            self._ambient = Span("(ambient)", "ambient", DEFAULT_PHASE, {}, [])
            self._ambient.start = self.epoch
            self.roots.append(self._ambient)
        self._ambient.end = _clock()
        return self._ambient

    # ------------------------------------------------------------ event sink

    def on_statement(
        self,
        record: StatementRecord,
        spans: Sequence[Span] = (),
        database: Any = None,
    ) -> None:
        """Sink for the Database event stream: attribute, count, capture.

        ``spans`` is the database's open-span stack; the statement belongs
        to its innermost span.
        """
        span = spans[-1] if spans else self._ambient_span()
        span.statements += 1
        span.statement_seconds += record.seconds
        if self.keep_statements:
            self.statements.append(record)

        metrics = self.metrics
        metrics.counter("dbms.statements").inc()
        metrics.counter(f"dbms.statements.{record.kind.lower()}").inc()
        metrics.counter("dbms.rows_fetched").inc(record.rows_fetched)
        metrics.counter("dbms.rows_changed").inc(record.rows_changed)
        metrics.histogram("dbms.statement_seconds").observe(record.seconds)
        if record.cache_hit is True:
            metrics.counter("dbms.statement_cache.hits").inc()
        elif record.cache_hit is False:
            metrics.counter("dbms.statement_cache.misses").inc()

        if (
            self.plans is not None
            and database is not None
            and self.plans.wants(record.kind, record.sql)
        ):
            path = "/".join(open_span.name for open_span in spans)
            self.plans.capture(
                database, record.sql, record.parameters, path or span.name
            )

    # --------------------------------------------------------------- utility

    def clear(self) -> None:
        """Drop collected spans/statements; metrics and plans are kept."""
        self.roots = []
        self.statements = []
        self._ambient = None
