"""Delete maintenance: DRed (delete-and-rederive) with a cost heuristic.

Deleting EDB facts can only *remove* derived tuples, but which ones is not
local: a tuple must go only if every derivation of it is broken.  DRed
answers this in two sweeps:

1. **Over-delete** — compute the transitive consequences of the deleted
   facts (the same differential loop as insert propagation) *against the
   pre-deletion base relations*, keeping only tuples the views actually
   hold.  Every derived tuple with at least one derivation through a deleted
   fact becomes a deletion candidate.  Running this before the base rows
   disappear matters: a rule joining the deleted relation against itself
   (``p(X,Y) :- b(X,Z), b(Z,Y)``) derives candidates from *pairs* of
   deleted rows, which the post-deletion database can no longer produce.
2. **Re-derive** — remove the candidates from the views, then re-run the
   rules restricted to the candidates over the post-deletion state: any
   candidate with a surviving alternative derivation comes back.  Each
   rule runs *from* its head's candidates (``MaintenancePlan.rederive``),
   probing the body's relations, so re-derivation costs what the
   candidates cost rather than a full rule-body evaluation.  Survivors
   then feed the ordinary insert-propagation loop, since a re-derived tuple
   can in turn support other candidates.

Every membership test probes an index (a view's key index, or the small
candidate relation), and the over-delete, candidate and re-derive relations
are stable per-predicate scratch relations, so a warm run issues no DDL.

Over-deletion can cascade far beyond the deleted facts, so
:class:`MaintenancePolicy` first estimates whether incremental maintenance
would lose to simply recomputing the view — the paper-style knobs are the
fraction of the base relation being deleted and the derived/base size
ratio — and the session falls back to a full refresh when it says so.

All statements run under the ``maint_dred`` phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..dbms.engine import Database
from ..dbms.sqlgen import copy_sql, delete_members_sql, insert_new_tuples_sql
from ..errors import EvaluationError
from ..runtime import naive
from .delta import propagate_inserts
from .plan import MaintenancePlan

PHASE_MAINT_DRED = "maint_dred"


@dataclass(frozen=True)
class MaintenanceDecision:
    """The cost heuristic's verdict for one delete batch."""

    use_incremental: bool
    delete_fraction: float
    derived_base_ratio: float
    reason: str


@dataclass(frozen=True)
class MaintenancePolicy:
    """When is DRed expected to beat recomputing the view from scratch?

    DRed's cost is driven by how much of the derived relation gets
    over-deleted and re-derived.  Two observable proxies bound it:

    * ``max_delete_fraction`` — deleting a large share of the base relation
      invalidates a comparable share of the derived tuples, at which point
      recomputing the (now small) view is cheaper than over-deleting and
      re-deriving most of the old one.
    * ``max_derived_base_ratio`` — a derived relation that dwarfs its base
      (dense closures) amplifies every deleted fact into a huge candidate
      set; past this ratio a single deletion can cascade through most of
      the view.
    """

    max_delete_fraction: float = 0.25
    max_derived_base_ratio: float = 64.0

    def decide(
        self, deleted_rows: int, base_rows: int, derived_rows: int
    ) -> MaintenanceDecision:
        """Choose between DRed and a full recompute for one delete batch."""
        if base_rows <= 0:
            return MaintenanceDecision(
                False, 1.0, 0.0, "base relation is empty"
            )
        fraction = deleted_rows / base_rows
        ratio = derived_rows / base_rows
        if fraction > self.max_delete_fraction:
            return MaintenanceDecision(
                False,
                fraction,
                ratio,
                f"delete fraction {fraction:.2f} exceeds "
                f"{self.max_delete_fraction:.2f}",
            )
        if ratio > self.max_derived_base_ratio:
            return MaintenanceDecision(
                False,
                fraction,
                ratio,
                f"derived/base ratio {ratio:.1f} exceeds "
                f"{self.max_derived_base_ratio:.1f}",
            )
        return MaintenanceDecision(True, fraction, ratio, "incremental")


@dataclass(frozen=True)
class DredStats:
    """Outcome of one delete-and-rederive run."""

    overdeleted: int
    rederived: int
    iterations: int

    @property
    def tuples_removed(self) -> int:
        """Net tuples removed from the materialized relations."""
        return self.overdeleted - self.rederived


class DeleteMaintenance:
    """One DRed run over a (possibly merged) maintenance plan.

    Usage is split in two because the over-delete sweep must see the base
    relations *before* the deletion is applied::

        run = DeleteMaintenance(database, plan, table_of)
        run.overdelete({predicate: staged_rows_table})
        ...delete the base rows...
        stats = run.apply_and_rederive()
    """

    def __init__(
        self,
        database: Database,
        plan: MaintenancePlan,
        table_of: Mapping[str, str],
    ):
        if plan.has_negation:
            raise EvaluationError(
                f"plan for {plan.view!r} contains negation; DRed is "
                "unsound — use a full refresh"
            )
        self.database = database
        self.plan = plan
        self.table_of = dict(table_of)
        # Per derived predicate with at least one candidate, the relation
        # collecting them.
        self.candidates: dict[str, str] = {}
        self._overdeleted = 0

    def _scratch(self, name: str, predicate: str) -> str:
        return self.database.scratch_relation(name, self.plan.types[predicate])

    def overdelete(self, seed_tables: Mapping[str, str]) -> int:
        """Collect deletion candidates; call *before* deleting base rows.

        ``seed_tables`` stage the rows about to be deleted (deduplicated,
        restricted to rows actually present).  Returns the candidate count.
        """
        delta = dict(seed_tables)
        iterations = 0
        with self.database.span(
            "dred_overdelete", "maintenance", PHASE_MAINT_DRED, view=self.plan.view
        ) as span:
            while delta:
                if iterations >= naive.MAX_ITERATIONS:
                    raise EvaluationError(
                        f"DRed over-deletion of {self.plan.view!r} did not "
                        f"converge within MAX_ITERATIONS="
                        f"{naive.MAX_ITERATIONS} iterations"
                    )
                iterations += 1
                new_delta: dict[str, str] = {}
                for clause, select in self.plan.compiled:
                    head = clause.head_predicate
                    for index, predicate in enumerate(
                        select.positive_predicates
                    ):
                        if predicate not in delta:
                            continue
                        if head not in new_delta:
                            new_delta[head] = self._scratch(
                                f"mdred_{head}_{iterations % 2}", head
                            )
                        tables = [
                            delta[p] if j == index else self.table_of[p]
                            for j, p in enumerate(select.table_slots)
                        ]
                        self.database.execute(
                            insert_new_tuples_sql(
                                new_delta[head],
                                select.render(tables),
                                clause.head.arity,
                            ),
                            select.parameters,
                        )
                next_delta: dict[str, str] = {}
                for head, name in new_delta.items():
                    arity = len(self.plan.types[head])
                    # Only tuples the view actually holds can be deleted...
                    self.database.execute(
                        delete_members_sql(
                            name, self.table_of[head], arity, members=False
                        )
                    )
                    # ...and tuples already collected stop the cascade.
                    if head in self.candidates:
                        self.database.execute(
                            delete_members_sql(
                                name, self.candidates[head], arity
                            )
                        )
                    count = self.database.row_count(name)
                    if count:
                        if head not in self.candidates:
                            self.candidates[head] = self._scratch(
                                f"mcand_{head}", head
                            )
                        self.database.execute(
                            copy_sql(self.candidates[head], name, arity)
                        )
                        self._overdeleted += count
                        next_delta[head] = name
                delta = next_delta
            span.set("iterations", iterations)
            span.set("candidates", self._overdeleted)
        return self._overdeleted

    def apply_and_rederive(self) -> DredStats:
        """Remove the candidates and re-derive the survivors.

        Call *after* the base rows are deleted.  Re-derivation runs each
        rule from its head's candidates (only candidates can be missing
        from the views), then propagates the survivors with the insert
        engine — a re-derived tuple can rescue further candidates.
        """
        database = self.database
        rederive_seeds: dict[str, str] = {}
        with database.span(
            "dred_rederive", "maintenance", PHASE_MAINT_DRED, view=self.plan.view
        ) as span:
            for head, cand in self.candidates.items():
                database.execute(
                    delete_members_sql(
                        self.table_of[head], cand, len(self.plan.types[head])
                    )
                )
            # Round 0: every rule driven from its head's candidates over the
            # post-deletion state — exactly the tuples whose alternative
            # derivations must be checked.
            for head, select in self.plan.rederive:
                if head not in self.candidates:
                    continue
                if head not in rederive_seeds:
                    rederive_seeds[head] = self._scratch(f"mredo_{head}", head)
                tables = [self.candidates[head]] + [
                    self.table_of[p] for p in select.table_slots[1:]
                ]
                database.execute(
                    insert_new_tuples_sql(
                        rederive_seeds[head],
                        select.render(tables),
                        len(self.plan.types[head]),
                    ),
                    select.parameters,
                )
            survivors: dict[str, str] = {}
            rederived = 0
            for head, name in rederive_seeds.items():
                count = database.row_count(name)
                if count:
                    arity = len(self.plan.types[head])
                    database.execute(copy_sql(self.table_of[head], name, arity))
                    rederived += count
                    survivors[head] = name
            span.set("rederived_round0", rederived)
        iterations = 0
        if survivors:
            stats = propagate_inserts(
                database, self.plan, self.table_of, survivors
            )
            rederived += stats.tuples_added
            iterations = stats.iterations
        return DredStats(self._overdeleted, rederived, iterations)
