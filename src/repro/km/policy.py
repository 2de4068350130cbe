"""Adaptive optimization policy (paper section 4.2 step 5 / conclusion 4).

The paper measures a selectivity crossover beyond which the magic sets
optimization *costs* time and concludes that "it is possible to tune the
D/KB query optimizer to adapt the optimization strategy dynamically,
switching it on for queries with low selectivity and off for others" — but
lists that dynamic strategy as unimplemented.  This module implements it.

The decision needs an estimate of the paper's ``D_rel / D`` before paying
for either plan.  The estimator runs a *bounded reachability probe*: a
single recursive-CTE walk from the query constants over the union of the
relevant binary base relations, capped at ``threshold x |domain|`` rows.

* If the probe converges under the cap, the query truly reaches a small
  fraction of the database -> selectivity is low -> **magic on**.
* If the probe hits the cap, at least ``threshold`` of the domain is
  relevant -> the crossover region -> **magic off**.

The probe's cost is itself bounded by the cap, so the policy never spends
more than a fixed fraction of the unoptimized plan's work to decide.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional

from ..datalog.clauses import Program, Query
from ..datalog.pcg import Clique
from ..datalog.terms import Constant
from ..dbms.catalog import ExtensionalCatalog, fact_table_name
from ..dbms.engine import Database
from ..dbms.schema import quote_identifier
from ..runtime.lfp_cte import cte_eligibility
from .optimizer import optimization_applies

# The paper's measured crossovers sit at 72% (semi-naive) to 85% (naive)
# selectivity; a conservative default threshold leaves margin for the
# probe's node-vs-tuple approximation.
DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class AdaptiveDecision:
    """The policy's verdict for one query, with its evidence."""

    use_magic: bool
    reason: str
    probed_nodes: int = 0
    probe_limit: int = 0
    domain_size: int = 0

    @property
    def estimated_selectivity(self) -> float:
        """Probe-based estimate of D_rel / D (1.0 when capped)."""
        if not self.domain_size:
            return 0.0
        if self.probed_nodes >= self.probe_limit:
            return 1.0
        return self.probed_nodes / self.domain_size


@dataclass(frozen=True)
class LfpStrategyDecision:
    """How a clique node should compute its fixpoint, with the evidence.

    Surfaces the recursive-CTE eligibility check (and the backend's
    capability gate) *before* execution, so callers — planners, the
    benchmark drivers, a curious user — can see which path a clique will
    take without running it.  ``evaluate_clique_lfp_cte`` applies exactly
    the same checks at execution time, so the decision here is a faithful
    prediction, never a promise the runtime breaks.
    """

    clique_label: str
    use_cte: bool
    reason: str

    @property
    def strategy_name(self) -> str:
        """The runtime strategy label this decision resolves to."""
        return "lfp_cte" if self.use_cte else "seminaive"


def decide_clique_strategy(
    clique: Clique, database: Database | None = None
) -> LfpStrategyDecision:
    """Decide whether ``clique`` should run as one recursive-CTE statement.

    ``database`` is optional: without one the decision reflects the clique's
    logical shape alone; with one, the backend's recursive-CTE support and
    compound-select limit gate the answer too.
    """
    label = "+".join(sorted(clique.predicates))
    check = cte_eligibility(clique, database)
    return LfpStrategyDecision(label, check.eligible, check.reason)


#: Sentinel distinguishing "leave this knob alone" from "clear it (None)".
_UNSET = object()


class ServingPolicy:
    """Live-mutable serving defaults — the knobs the SLO watchdog flips.

    The per-query adaptive machinery above decides *one query at a time*;
    this class closes the loop at the *serving* level: a mutable, thread-
    safe set of default overrides the query server consults on every
    request that did not spell the knob out itself.  An explicit value in
    the client's request always wins — the overrides only replace the
    protocol defaults, so flipping a knob never breaks a caller that asked
    for something specific.

    Two knobs, mirroring the paper's tunables:

    * ``optimize`` — the magic-sets default (magic on/off, or
      ``"adaptive"`` for the per-query probe policy);
    * ``use_cache`` — the result-cache default.

    Values are wire-level so a snapshot is JSON-friendly and the
    watchdog's structured events can carry it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._optimize: "bool | str | None" = None  # guarded-by: _lock
        self._use_cache: Optional[bool] = None  # guarded-by: _lock

    # -- reading (the serving hot path) ------------------------------------

    def default_optimize(self, fallback: "bool | str" = False) -> "bool | str":
        """The magic-sets setting for a request that named none."""
        with self._lock:
            return self._optimize if self._optimize is not None else fallback

    def default_use_cache(self, fallback: bool = True) -> bool:
        """The result-cache setting for a request that named none."""
        with self._lock:
            return self._use_cache if self._use_cache is not None else fallback

    # -- flipping (the watchdog's action pairs) ----------------------------

    def set_optimize(self, optimize: Any = _UNSET) -> "bool | str | None":
        """Set (or with ``None`` clear) the magic-sets override.

        Returns the previous override so the caller can restore it — the
        shape a reversible watchdog action needs.
        """
        with self._lock:
            previous = self._optimize
            if optimize is not _UNSET:
                self._optimize = optimize
            return previous

    def set_use_cache(self, use_cache: Any = _UNSET) -> Optional[bool]:
        """Set (or with ``None`` clear) the result-cache override."""
        with self._lock:
            previous = self._use_cache
            if use_cache is not _UNSET:
                self._use_cache = use_cache
            return previous

    def clear(self) -> None:
        """Drop every override (back to the protocol defaults)."""
        with self._lock:
            self._optimize = None
            self._use_cache = None

    def overrides(self) -> dict[str, Any]:
        """JSON-friendly view of the currently active overrides."""
        with self._lock:
            active: dict[str, Any] = {}
            if self._optimize is not None:
                active["optimize"] = self._optimize
            if self._use_cache is not None:
                active["use_cache"] = self._use_cache
            return active


class AdaptiveOptimizationPolicy:
    """Decides per query whether the magic sets rewriting should be applied."""

    def __init__(self, threshold: float = DEFAULT_THRESHOLD):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold

    def decide(
        self,
        database: Database,
        catalog: ExtensionalCatalog,
        relevant_rules: Program,
        query: Query,
    ) -> AdaptiveDecision:
        """Estimate the query's selectivity and pick a plan."""
        derived = relevant_rules.derived_predicates
        if not optimization_applies(query, derived):
            return AdaptiveDecision(False, "magic sets does not apply")

        edge_tables = self._binary_base_tables(catalog, relevant_rules, derived)
        if not edge_tables:
            return AdaptiveDecision(
                True, "no binary base relations to probe; defaulting to magic"
            )

        constants = [
            t.value for t in query.goals[0].terms if isinstance(t, Constant)
        ]
        union_sql = " UNION ALL ".join(
            f"SELECT c0, c1 FROM {quote_identifier(t)}" for t in edge_tables
        )
        domain_size = int(
            database.execute(
                f"SELECT COUNT(*) FROM (SELECT c0 FROM ({union_sql}) "
                f"UNION SELECT c1 FROM ({union_sql}))"
            )[0][0]
        )
        if not domain_size:
            return AdaptiveDecision(True, "empty base relations; magic is free")
        probe_limit = max(2, int(self.threshold * domain_size))

        seeds = " UNION ".join("SELECT ?" for __ in constants)
        probed = int(
            database.execute(
                f"WITH RECURSIVE probe(n) AS ("
                f"  {seeds}"
                f"  UNION "
                f"  SELECT e.c1 FROM ({union_sql}) AS e, probe "
                f"  WHERE e.c0 = probe.n"
                f") SELECT COUNT(*) FROM (SELECT n FROM probe LIMIT ?)",
                (*constants, probe_limit),
            )[0][0]
        )
        if probed >= probe_limit:
            return AdaptiveDecision(
                False,
                f"probe capped at {probe_limit} of {domain_size} domain "
                "values; selectivity too high for magic to pay",
                probed,
                probe_limit,
                domain_size,
            )
        return AdaptiveDecision(
            True,
            f"probe converged at {probed} of {domain_size} domain values",
            probed,
            probe_limit,
            domain_size,
        )

    @staticmethod
    def _binary_base_tables(
        catalog: ExtensionalCatalog, rules: Program, derived: set[str]
    ) -> list[str]:
        """Fact tables of the binary base relations the rules read."""
        names: list[str] = []
        seen: set[str] = set()
        for clause in rules.rules:
            for atom in clause.body:
                predicate = atom.predicate
                if (
                    predicate in derived
                    or predicate in seen
                    or atom.arity != 2
                ):
                    continue
                seen.add(predicate)
                if catalog.has_relation(predicate):
                    names.append(fact_table_name(predicate))
        return sorted(names)
