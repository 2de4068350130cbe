"""Maintenance plans: the compiled rule set behind a materialized view.

A plan is extracted by compiling the all-free query ``?- v(X0, .., Xn).``
through the ordinary :class:`repro.km.compiler.QueryCompiler` pipeline — the
same relevant-rule extraction, dictionary reads, and semantic checks a user
query would get — and keeping what the maintenance engines need: the
relevant rules, the derived support set, the base relations read, the column
types, and the evaluation order (for full refreshes).

When one EDB update touches several views at once their plans are *merged*
and maintained jointly; updating each view in isolation would be wrong, not
just slow — the first view's pass would fold shared support tuples in, the
second view's delta would strip them as already-known, and derivations
feeding the second view's private predicates would be lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

from ..datalog.clauses import Clause
from ..datalog.evalgraph import EvaluationNode
from ..dbms.sqlgen import CompiledSelect, compile_rule_body

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (km imports us)
    from ..km.compiler import CompilationResult


@dataclass(frozen=True)
class MaintenancePlan:
    """Everything the maintenance engines need to keep a view correct.

    Attributes:
        view: the materialized predicate (or a ``+``-joined label for a
            merged plan covering several views).
        rules: the relevant rules, deduplicated, in extraction order.
        derived: the derived support set, sorted (always contains the view).
        base: the base relations the rules read, sorted.
        types: column types of every predicate in ``derived`` + ``base``.
        order: the evaluation order list (full-refresh path only; empty for
            merged plans, which are never refreshed as a unit).
        has_negation: any rule body contains a negated atom — delta
            propagation and DRed are unsound then, so maintenance falls
            back to a full refresh.
    """

    view: str
    rules: tuple[Clause, ...]
    derived: tuple[str, ...]
    base: tuple[str, ...]
    types: Mapping[str, tuple[str, ...]]
    order: tuple[EvaluationNode, ...] = ()
    has_negation: bool = False

    def table_of(
        self, base_table: "callable", view_table: "callable"
    ) -> dict[str, str]:
        """Predicate-to-table mapping over the plan's whole vocabulary."""
        mapping = {p: base_table(p) for p in self.base}
        mapping.update({p: view_table(p) for p in self.derived})
        return mapping

    @cached_property
    def compiled(self) -> tuple[tuple[Clause, CompiledSelect], ...]:
        """Each rule with its compiled body, for delta propagation."""
        return tuple((c, compile_rule_body(c)) for c in self.rules)

    @cached_property
    def rederive(self) -> tuple[tuple[str, CompiledSelect], ...]:
        """Each rule's body driven from its head's candidate tuples.

        ``h(t̄) :- body`` compiles as ``h(t̄) :- h(t̄), body`` with the first
        atom's slot rendered as the candidate relation of ``h``: the join
        starts from the candidates and probes the body's relations, head
        constants become filters and repeated head variables become joins.
        """
        return tuple(
            (
                c.head_predicate,
                compile_rule_body(Clause(c.head, (c.head,) + c.body)),
            )
            for c in self.rules
        )


def build_plan(view: str, compilation: "CompilationResult") -> MaintenancePlan:
    """Derive a maintenance plan from the all-free query's compilation."""
    rules = tuple(compilation.relevant_rules.rules)
    derived = tuple(sorted(compilation.relevant_rules.derived_predicates | {view}))
    base = tuple(sorted(compilation.program.base_predicates))
    has_negation = any(
        atom.negated for clause in rules for atom in clause.body
    )
    return MaintenancePlan(
        view=view,
        rules=rules,
        derived=derived,
        base=base,
        types=dict(compilation.program.types),
        order=tuple(compilation.program.order),
        has_negation=has_negation,
    )


def merge_plans(plans: Sequence[MaintenancePlan]) -> MaintenancePlan:
    """Union several plans so one EDB update maintains all views jointly."""
    if len(plans) == 1:
        return plans[0]
    rules: list[Clause] = []
    seen: set[Clause] = set()
    for plan in plans:
        for clause in plan.rules:
            if clause not in seen:
                seen.add(clause)
                rules.append(clause)
    types: dict[str, tuple[str, ...]] = {}
    for plan in plans:
        types.update(plan.types)
    return MaintenancePlan(
        view="+".join(sorted({p.view for p in plans})),
        rules=tuple(rules),
        derived=tuple(sorted({d for p in plans for d in p.derived})),
        base=tuple(sorted({b for p in plans for b in p.base})),
        types=types,
        order=(),
        has_negation=any(p.has_negation for p in plans),
    )


@dataclass(frozen=True)
class MaintenanceResult:
    """One maintenance event, as recorded in ``Testbed.maintenance_log``.

    Attributes:
        views: the views the event maintained.
        trigger: what caused it (``insert`` / ``delete`` / ``materialize`` /
            ``refresh``).
        strategy: how it was handled (``delta`` / ``dred`` / ``refresh``).
        fell_back: an incremental path was requested but the engine chose a
            full refresh instead (negation, or the cost heuristic).
        reason: why it fell back (``None`` otherwise).
        seconds: wall time of the maintenance work (excludes the base-table
            write itself).
        base_rows_changed: rows inserted into / deleted from the base
            relation.
        tuples_added: tuples added across the materialized relations.
        tuples_removed: tuples removed across the materialized relations
            (DRed: net of over-delete minus re-derive).
        iterations: delta-propagation iterations performed.
    """

    views: tuple[str, ...]
    trigger: str
    strategy: str
    fell_back: bool = False
    reason: str | None = None
    seconds: float = 0.0
    base_rows_changed: int = 0
    tuples_added: int = 0
    tuples_removed: int = 0
    iterations: int = 0
    decision: "object | None" = field(default=None, compare=False)

    @property
    def timings(self) -> dict[str, float]:
        """Phase -> seconds, the common result-object timing contract.

        Maintenance is a single phase named after the strategy that ran
        (``delta`` / ``dred`` / ``refresh``).
        """
        return {self.strategy: self.seconds}

    @property
    def total_seconds(self) -> float:
        """Wall time of the maintenance work (same contract as query results)."""
        return self.seconds
