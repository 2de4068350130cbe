"""Shared evaluation state for the Run Time Library.

An :class:`EvaluationContext` tracks, for one query execution, where each
predicate's tuples live (base relations, materialised derived relations,
temporaries), what the column types are, and the counters the experiment
harness reads (LFP iterations per clique, tuples produced).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import ContextManager, Mapping, Sequence

from ..dbms.advisor import advise_clique_indexes, apply_index_advice
from ..dbms.engine import Database
from ..dbms.schema import RelationSchema
from ..dbms.sqlgen import CompiledSelect
from ..errors import EvaluationError
from ..obs.trace import NULL_TRACER, NullTracer, Tracer

DERIVED_TABLE_PREFIX = "d_"

# Phase names shared by the evaluation strategies so Test 6's breakdown can
# compare naive and semi-naive like-for-like.
PHASE_TEMP_TABLES = "temp_tables"
PHASE_RHS_EVAL = "rhs_eval"
PHASE_TERMINATION = "termination"


def derived_table_name(predicate: str) -> str:
    """Physical table name for a materialised derived predicate."""
    return f"{DERIVED_TABLE_PREFIX}{predicate}"


@dataclass(frozen=True)
class FastPathConfig:
    """Switches for the fast-path execution layer (all off by default).

    The seed implementation pays exactly the costs the paper's Test 6
    dissects; each switch removes one of them, so the A/B benchmarks can
    attribute the speedup:

    * ``batch_iterations`` — wrap each LFP iteration in one explicit
      transaction (:meth:`repro.dbms.engine.Database.transaction`) instead
      of autocommit-per-statement.
    * ``reuse_scratch_tables`` — allocate the per-iteration scratch/delta
      relations once, before the loop, and clear them with ``DELETE``
      instead of re-running ``CREATE``/``DROP`` every iteration.  Stable
      table names also keep the rendered SQL text identical across
      iterations, which is what lets the prepared-statement cache hit.
    * ``advise_indexes`` — run the index advisor
      (:mod:`repro.dbms.advisor`) over the clique's compiled SELECTs before
      the loop and index the derived relations' join columns.
    """

    batch_iterations: bool = False
    reuse_scratch_tables: bool = False
    advise_indexes: bool = False

    @classmethod
    def enabled(cls) -> "FastPathConfig":
        """Every statement-stream-preserving fast-path feature on."""
        return cls(True, True, True)

    @classmethod
    def disabled(cls) -> "FastPathConfig":
        """The seed behaviour (every feature off)."""
        return cls()

    def __bool__(self) -> bool:
        return (
            self.batch_iterations
            or self.reuse_scratch_tables
            or self.advise_indexes
        )


@dataclass
class EvaluationCounters:
    """Logical counters accumulated during one query execution."""

    iterations_by_clique: dict[str, int] = field(default_factory=dict)
    tuples_by_predicate: dict[str, int] = field(default_factory=dict)
    # Clique label -> how it was actually evaluated: "lfp_cte" when the
    # recursive-CTE path ran, "fallback: <reason>" when it declined.
    # Only filled in by strategies that make such a choice.
    strategy_by_clique: dict[str, str] = field(default_factory=dict)

    @property
    def total_iterations(self) -> int:
        """LFP iterations summed over all cliques."""
        return sum(self.iterations_by_clique.values())

    @property
    def total_tuples(self) -> int:
        """Materialised tuples summed over all derived predicates."""
        return sum(self.tuples_by_predicate.values())


class EvaluationContext:
    """Mutable bookkeeping for one query execution against one database."""

    def __init__(
        self,
        database: Database,
        table_of: Mapping[str, str],
        types_of: Mapping[str, tuple[str, ...]],
        seed_rows: Mapping[str, tuple[tuple, ...]] | None = None,
        fastpath: FastPathConfig | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ):
        self.database = database
        # Observability sink for the evaluation strategies; NULL_TRACER when
        # tracing is off, so strategy code needs no None checks.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._table_of: dict[str, str] = dict(table_of)
        self._types_of: dict[str, tuple[str, ...]] = dict(types_of)
        # Ground tuples to pre-load into derived relations — how the magic
        # seed fact (the query bindings) enters the fixed-point computation.
        self.seed_rows: dict[str, tuple[tuple, ...]] = dict(seed_rows or {})
        self.fastpath = fastpath if fastpath is not None else FastPathConfig()
        self.counters = EvaluationCounters()
        self._materialised: list[str] = []
        self._seeded: set[str] = set()

    def table_of(self, predicate: str) -> str:
        """Physical table holding ``predicate``'s tuples.

        Raises:
            EvaluationError: when the predicate has not been materialised.
        """
        try:
            return self._table_of[predicate]
        except KeyError:
            raise EvaluationError(
                f"predicate {predicate!r} has no materialised relation"
            ) from None

    def has_table(self, predicate: str) -> bool:
        """Whether ``predicate`` already has a relation."""
        return predicate in self._table_of

    def types_of(self, predicate: str) -> tuple[str, ...]:
        """Column types of ``predicate``.

        Raises:
            EvaluationError: when the types are unknown.
        """
        try:
            return self._types_of[predicate]
        except KeyError:
            raise EvaluationError(
                f"predicate {predicate!r} has no known column types"
            ) from None

    def register_types(self, predicate: str, types: tuple[str, ...]) -> None:
        """Record the column types of a predicate."""
        self._types_of[predicate] = types

    def materialise(self, predicate: str) -> str:
        """Create an (empty) result relation for a derived predicate.

        Idempotent: returns the existing table when already materialised.
        """
        if predicate in self._table_of:
            return self._table_of[predicate]
        name = derived_table_name(predicate)
        schema = RelationSchema(name, self.types_of(predicate))
        self.database.drop_relation(name)
        self.database.create_relation(schema)
        self._table_of[predicate] = name
        self._materialised.append(name)
        return name

    def insert_seed_rows(self, predicate: str) -> int:
        """Insert the predicate's seed tuples into its relation, once."""
        rows = self.seed_rows.get(predicate)
        if not rows or predicate in self._seeded:
            return 0
        self._seeded.add(predicate)
        schema = RelationSchema(self.table_of(predicate), self.types_of(predicate))
        return self.database.insert_rows(schema, rows)

    def adopt_table(self, predicate: str, name: str) -> None:
        """Register an externally created relation for ``predicate``.

        The table participates in :meth:`cleanup` like a materialised one.
        Used by evaluation strategies that manage their own storage layout
        (e.g. the keyed relations of the in-DBMS LFP operator).
        """
        self._table_of[predicate] = name
        self._materialised.append(name)

    def schema_of(self, predicate: str) -> RelationSchema:
        """Schema of ``predicate``'s current relation."""
        return RelationSchema(self.table_of(predicate), self.types_of(predicate))

    def record_result_size(self, predicate: str) -> int:
        """Count and record the materialised size of ``predicate``."""
        count = self.database.row_count(self.table_of(predicate))
        self.counters.tuples_by_predicate[predicate] = count
        return count

    def iteration_scope(self) -> ContextManager[None]:
        """Transaction scope for one LFP iteration.

        An explicit transaction when the fast path batches iterations, a
        no-op otherwise — so the strategies can wrap every iteration body
        unconditionally.
        """
        if self.fastpath.batch_iterations:
            return self.database.transaction()
        return contextlib.nullcontext()

    def create_advised_indexes(
        self, selects: Sequence[CompiledSelect], predicates: Sequence[str]
    ) -> int:
        """Run the index advisor over a clique (no-op unless enabled).

        Creates the advised indexes on the clique predicates' result
        relations and returns how many; the caller attributes the CREATE
        INDEX statements to whatever phase is active.
        """
        if not self.fastpath.advise_indexes:
            return 0
        advice = advise_clique_indexes(
            selects,
            predicates,
            self.table_of,
            lambda p: len(self.types_of(p)),
        )
        return apply_index_advice(self.database, advice)

    def cleanup(self) -> None:
        """Drop every relation materialised through this context."""
        for name in self._materialised:
            self.database.drop_relation(name)
        self._materialised.clear()
