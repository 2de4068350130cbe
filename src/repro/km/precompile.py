"""Query precompilation (paper conclusion 3).

"Precompilation of D/KB queries can prove to be very useful ... especially
for frequently occurring queries with large R_rs values.  The price of
precompilation is that, for precompiled queries, information about rules and
relations must be recorded.  During updates, this information is checked to
see whether the update invalidates any compiled query."

:class:`PrecompiledQueryCache` implements exactly that, and is the default
path of ``Testbed.query``.  Compiled query programs are cached keyed by the
query's *form* (:func:`query_form`) and the compilation options; each entry
records the predicates its compilation depended on; the session checks every
workspace definition and stored-D/KB update against those dependency sets
and drops the entries an update could invalidate.

Why the form is enough: the constants of a query reach the compiled program
in two places only, both read from ``QueryProgram.query`` at execution time —
the final answer SELECT's parameters (``QueryProgram.answer``) and, for a
rewritten plan, the magic seed row (``QueryProgram.query_seed``, goal
positions rather than values).  Relevant-rule extraction, type checking
(which sees only each constant's type), the rewrite decision and the rewrite
itself (which see only *which* arguments are bound), the evaluation order and
every per-rule SQL statement, in its SIP join order, are the same for
``p('a', X)`` and ``p('b', X)``.  A hit therefore
rebinds the cached program to the incoming query and runs it; the rebind
keeps the plan's one-statement form (``QueryProgram.fused``), so the cache's
LRU is also what bounds those statements.

Entries only need dropping on *rule* and *schema* changes.  Fact loads never
invalidate — the compiled program reads base relations at execution time.
Changes the session does not see happen (another handle on the same
database storing rules, the workspace or catalog edited directly) are caught
by :meth:`PrecompiledQueryCache.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, Iterable, Union

from ..datalog.clauses import Query
from ..datalog.terms import Variable
from ..runtime.program import LfpStrategy
from .compiler import CompilationResult, CompilationTimings

CacheKey = tuple[Hashable, str, str]


def query_form(query: Query) -> Hashable:
    """What of ``query`` a compilation depends on.

    The goals in order — predicate, negation flag, and per argument either
    the variable's first-occurrence number (so ``p(X, X)`` and ``p(X, Y)``
    differ, ``p(X, Y)`` and ``p(A, B)`` do not) or, for a constant, only its
    SQL type — plus which variables are answered, in output order.
    """
    numbering: dict[Variable, int] = {}
    goals = tuple(
        (
            goal.predicate,
            goal.negated,
            tuple(
                numbering.setdefault(term, len(numbering))
                if isinstance(term, Variable)
                else term.sql_type
                for term in goal.terms
            ),
        )
        for goal in query.goals
    )
    return goals, tuple(numbering[v] for v in query.answer_variables)


def cache_key(
    query: Query,
    optimize: Union[bool, str],
    strategy: LfpStrategy,
) -> CacheKey:
    """Cache key for a query and its compilation options."""
    return (query_form(query), str(optimize), strategy.value)


@dataclass
class CacheEntry:
    """One precompiled query with its recorded dependency information."""

    result: CompilationResult
    dependencies: frozenset[str]
    hits: int = 0


@dataclass
class CacheStatistics:
    """Hit/miss/invalidations counters for the experiment harness."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PrecompiledQueryCache:
    """Compiled-program cache with rule-dependency invalidation."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: dict[CacheKey, CacheEntry] = {}
        self.statistics = CacheStatistics()
        #: The D/KB state the entries were compiled under (see ``validate``).
        self.valid_for: Hashable = None

    def __len__(self) -> int:
        return len(self._entries)

    def validate(self, state: Hashable) -> None:
        """Drop every entry unless all were compiled under ``state``.

        ``state`` is whatever the owner reads to identify the rule base and
        schema it compiles against; :meth:`invalidate_for` handles the
        changes the owner tracks itself, this handles every other one.
        """
        if state != self.valid_for:
            self.statistics.invalidations += len(self._entries)
            self.clear()
            self.valid_for = state

    def get(self, key: CacheKey, query: Query) -> CompilationResult | None:
        """The cached plan for ``key`` bound to ``query``; ``None`` on a miss.

        The result is marked ``cached`` and carries zeroed timings: nothing
        was compiled for this call.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.statistics.misses += 1
            return None
        entry.hits += 1
        self.statistics.hits += 1
        # Move to the back of the eviction order (LRU).
        self._entries[key] = self._entries.pop(key)
        return replace(
            entry.result,
            program=replace(entry.result.program, query=query),
            timings=CompilationTimings(),
            cached=True,
        )

    def put(self, key: CacheKey, result: CompilationResult) -> None:
        """Cache a compilation, recording its rule dependencies.

        The dependency set is every predicate whose definition the compiled
        plan embeds: heads *and* body predicates of the relevant rules, plus
        the query's own goal predicates — a rule added for any of them can
        change the plan.
        """
        dependencies: set[str] = set(result.program.query.predicates)
        for clause in result.relevant_rules:
            dependencies.add(clause.head_predicate)
            dependencies.update(clause.body_predicates)
        # Re-putting a key replaces its own entry, not the oldest other one.
        self._entries.pop(key, None)
        if len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[key] = CacheEntry(result, frozenset(dependencies))

    def invalidate_for(self, predicates: Iterable[str]) -> list[CacheKey]:
        """Drop every entry depending on any of ``predicates``.

        This is the update-time check the paper describes; returns the keys
        that were invalidated.
        """
        changed = set(predicates)
        if not changed:
            return []
        doomed = [
            key
            for key, entry in self._entries.items()
            if not entry.dependencies.isdisjoint(changed)
        ]
        for key in doomed:
            del self._entries[key]
        self.statistics.invalidations += len(doomed)
        return doomed

    def clear(self) -> None:
        """Drop everything (counters survive)."""
        self._entries.clear()

    def entries(self) -> dict[CacheKey, CacheEntry]:
        """A snapshot of the cache contents (for inspection/tests)."""
        return dict(self._entries)
