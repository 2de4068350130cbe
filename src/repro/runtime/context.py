"""Shared evaluation state for the Run Time Library.

An :class:`EvaluationContext` tracks, for one query execution, where each
predicate's tuples live (base relations, materialised derived relations,
temporaries), what the column types are, and the counters the experiment
harness reads (LFP iterations per clique, tuples produced).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..dbms.engine import Database
from ..dbms.schema import RelationSchema
from ..errors import EvaluationError

DERIVED_TABLE_PREFIX = "d_"

# Phase names shared by the evaluation strategies so Test 6's breakdown can
# compare naive and semi-naive like-for-like.
PHASE_TEMP_TABLES = "temp_tables"
PHASE_RHS_EVAL = "rhs_eval"
PHASE_TERMINATION = "termination"


def derived_table_name(predicate: str) -> str:
    """Physical table name for a materialised derived predicate."""
    return f"{DERIVED_TABLE_PREFIX}{predicate}"


@dataclass
class EvaluationCounters:
    """Logical counters accumulated during one query execution."""

    iterations_by_clique: dict[str, int] = field(default_factory=dict)
    tuples_by_predicate: dict[str, int] = field(default_factory=dict)
    # Clique label -> "fallback: <reason>" when an ``LFP_CTE`` plan runs
    # node by node (a fused plan reports "lfp_cte" without a context).
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
    ):
        self.database = database
        self._table_of: dict[str, str] = dict(table_of)
        self._types_of: dict[str, tuple[str, ...]] = dict(types_of)
        # Ground tuples to pre-load into derived relations — how the magic
        # seed fact (the query bindings) enters the fixed-point computation.
        self.seed_rows: dict[str, tuple[tuple, ...]] = dict(seed_rows or {})
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

    def schema_of(self, predicate: str) -> RelationSchema:
        """Schema of ``predicate``'s current relation."""
        return RelationSchema(self.table_of(predicate), self.types_of(predicate))

    def record_result_size(self, predicate: str) -> int:
        """Count and record the materialised size of ``predicate``."""
        count = self.database.row_count(self.table_of(predicate))
        self.counters.tuples_by_predicate[predicate] = count
        return count

    def cleanup(self) -> None:
        """Drop every relation materialised through this context."""
        for name in self._materialised:
            self.database.drop_relation(name)
        self._materialised.clear()
