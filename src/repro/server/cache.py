"""The versioned query-result cache.

Results are keyed by ``(canonicalized query text, D/KB version)``: a cached
answer is served only to a reader whose snapshot is at exactly the version
the answer was computed under, so the cache can never return stale rows —
every write bumps the version (see :mod:`repro.server.pool`), which makes
all older entries unreachable and leaves them to LRU eviction.

Canonicalization parses the query and re-renders it, so two requests that
differ only in whitespace or in how the constants arrive (inline vs the
protocol's ``bindings`` object) share one entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ..datalog.clauses import Query
from ..datalog.parser import parse_query
from ..datalog.terms import Constant, Variable
from ..errors import ParseError
from ..obs.metrics import MetricsRegistry

DEFAULT_CACHE_CAPACITY = 256


def bind_query(
    query: "str | Query", bindings: Optional[Mapping[str, Any]] = None
) -> Query:
    """``query`` parsed, with ``bindings`` substituted.

    ``bindings`` maps variable names to constant values; variables not
    mentioned stay free.  Its text (:func:`canonical_query`) is the cache
    key, and the object itself is what gets compiled — the parse / render
    round trip is stable, so a served read parses its text once.

    Raises:
        ParseError: when the query text does not parse, or a binding names
            a variable the query does not use.
    """
    parsed = parse_query(query) if isinstance(query, str) else query
    if bindings:
        by_name = {v.name: v for g in parsed.goals for v in g.variables}
        unknown = sorted(set(bindings) - set(by_name))
        if unknown:
            raise ParseError(
                "bindings name variables not in the query: "
                + ", ".join(repr(n) for n in unknown)
            )
        mapping: dict[Variable, Constant] = {
            by_name[name]: Constant(value) for name, value in bindings.items()
        }
        parsed = Query(tuple(g.substitute(mapping) for g in parsed.goals))
    return parsed


def canonical_query(
    query: "str | Query", bindings: Optional[Mapping[str, Any]] = None
) -> str:
    """The canonical text of ``query`` with ``bindings`` substituted.

    A valid query string (the parse / render round trip is stable), used
    as the cache key; see :func:`bind_query`.

    Raises:
        ParseError: as :func:`bind_query`.
    """
    return str(bind_query(query, bindings))


@dataclass(frozen=True)
class CachedResult:
    """One cached answer: the rows plus how they were produced."""

    rows: tuple[tuple, ...]
    version: int
    answered_from_view: bool = False
    compute_seconds: float = 0.0


class VersionedResultCache:
    """A thread-safe LRU of :class:`CachedResult` keyed by (query, version).

    Hit/miss/eviction counters are kept locally and, when a
    :class:`~repro.obs.metrics.MetricsRegistry` is attached, mirrored into
    the ``server.cache.*`` counter family so the service's ``stats`` op and
    the observability exports see the same numbers.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CACHE_CAPACITY,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[str, int], CachedResult] = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        self._metrics = metrics

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache.

        Reads the hit/miss pair under the lock: a concurrent ``get``
        between the two reads would otherwise yield a torn ratio (hits
        from after the lookup, total from before).
        """
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def get(self, key: str, version: int) -> Optional[CachedResult]:
        """The cached result for ``key`` at exactly ``version``, if any."""
        with self._lock:
            entry = self._entries.get((key, version))
            if entry is not None:
                self._entries.move_to_end((key, version))
                self.hits += 1
            else:
                self.misses += 1
        if self._metrics is not None:
            name = "server.cache.hits" if entry else "server.cache.misses"
            self._metrics.counter(name).inc()
        return entry

    def put(self, key: str, result: CachedResult) -> None:
        """Store one answer; evicts least-recently-used entries beyond capacity."""
        evicted = 0
        with self._lock:
            self._entries[(key, result.version)] = result
            self._entries.move_to_end((key, result.version))
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        if evicted and self._metrics is not None:
            self._metrics.counter("server.cache.evictions").inc(evicted)

    def clear(self) -> None:
        """Drop every entry (counters survive)."""
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> dict[str, float | int]:
        """JSON-friendly counters for the ``stats`` op.

        All counters are read in one critical section so the snapshot is
        internally consistent (``hit_rate`` matches ``hits``/``misses``
        exactly, even while other threads are calling :meth:`get`).  The
        hit rate is recomputed inline because ``_lock`` is not reentrant.
        """
        with self._lock:
            hits = self.hits
            misses = self.misses
            total = hits + misses
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": hits,
                "misses": misses,
                "evictions": self.evictions,
                "hit_rate": hits / total if total else 0.0,
            }
