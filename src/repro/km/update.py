"""The Stored D/KB update algorithm (paper section 4.3), instrumented.

Updating moves the Workspace D/KB rules into the Stored D/KB, maintaining the
compiled rule storage structure (the transitive closure of the PCG)
*incrementally*: only the portion of the closure affected by the new rules is
recomputed, never the whole rule base.

The measured components mirror Test 9's breakdown:

* ``extract`` (``t_uextract``) — the rule difference (one indexed probe of
  which workspace rules are already stored) and pulling the stored rules
  relevant to the new ones, so the composite PCG can be built;
* ``closure`` (``t_utc``)     — the incremental transitive closure;
* ``typecheck``               — the type checking step;
* ``lint``                    — the optional static-analysis vetting pass;
* ``store`` (``t_ustore``)    — writing ``rulesource``, ``ipredicates``,
  ``icolumns`` and ``reachablepreds``.

Every step is set at a time — a handful of statements per update, none of
them scanning the stored rule base — so ``t_u`` follows the workspace, not
``R_s`` (Test 8).

With ``compiled_storage=False`` only the source form is written, which is the
"without compiled rule storage structures" configuration of Test 8 — almost
an order of magnitude faster, at the price of slower query compilation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import AnalysisConfig, analyze
from ..datalog.clauses import Clause, Program
from ..datalog.typecheck import infer_types
from ..dbms.catalog import ExtensionalCatalog
from ..errors import UpdateError
from ..obs.timings import TimingsMapping
from .stored import StoredDKB
from .workspace import WorkspaceDKB


@dataclass
class UpdateTimings(TimingsMapping):
    """Wall-clock seconds per update component: each is the duration of
    the same-named child span of the ``update`` span.

    Also a read-only :class:`~collections.abc.Mapping` over the components
    (iteration excludes ``total``, so ``sum(t.values()) == t.total``).
    """

    extract: float = 0.0
    closure: float = 0.0
    typecheck: float = 0.0
    lint: float = 0.0
    store: float = 0.0


@dataclass
class UpdateResult:
    """Outcome of one stored-D/KB update."""

    new_rules: list[Clause]
    new_closure_pairs: int
    new_predicates: list[str]
    timings: UpdateTimings

    @property
    def total_seconds(self) -> float:
        """Total update time (the common result-object timing contract)."""
        return self.timings.total


#: Vetting configuration: undefined predicates are allowed — a stored rule
#: may reference predicates whose definitions arrive in a later update
#: (paper section 3.1) — and dictionary entries count as definitions.
VET_CONFIG = AnalysisConfig(allow_undefined=True)


def update_stored_dkb(
    workspace: WorkspaceDKB,
    stored: StoredDKB,
    catalog: ExtensionalCatalog,
    lint: bool = False,
) -> UpdateResult:
    """Fold the workspace rules into the Stored D/KB.

    Follows the paper's algorithm: compute the rule difference, extract the
    relevant stored rules, build the composite PCG, incrementally extend the
    stored transitive closure, type check, then write the storage structures.

    Args:
        workspace: the Workspace D/KB whose rules are folded in.
        stored: the target Stored D/KB.
        catalog: the extensional data dictionary.
        lint: additionally vet the composite rules with the full
            static-analysis pass set and reject the update when any
            error-level diagnostic is found; the time spent is the ``lint``
            timing component.

    Each update component is a child span of one ``update`` span on the
    stored D/KB's database; its duration is the timing.

    Raises:
        UpdateError: when type checking fails against the stored dictionary,
            or (with ``lint=True``) when vetting finds an error.
    """
    with stored.database.span("update", "update") as update_span:
        result = _update_stored_dkb(workspace, stored, catalog, lint)
        update_span.set("new_rules", len(result.new_rules))
        update_span.set("new_closure_pairs", result.new_closure_pairs)
    return result


def _update_stored_dkb(
    workspace: WorkspaceDKB,
    stored: StoredDKB,
    catalog: ExtensionalCatalog,
    lint: bool,
) -> UpdateResult:
    timings = UpdateTimings()
    database = stored.database

    # Step 1: the difference between the workspace and the stored rules, and
    # the stored rules relevant to it.  Without compiled storage there is no
    # closure to maintain, so the relevant-rule extraction — the dominant
    # update cost per Test 9 — is skipped entirely: "the update time is
    # simply the time to store the source form of the rules" (Test 8).
    with database.span("extract", "update") as span:
        rules = workspace.rules
        texts = [str(c) for c in rules]
        stored_texts = stored.stored_among(texts)
        delta_rules = [c for c, t in zip(rules, texts) if t not in stored_texts]
        referenced: set[str] = set()
        for clause in delta_rules:
            referenced.add(clause.head_predicate)
            referenced.update(clause.body_predicates)
        if stored.compiled_storage:
            extracted = stored.extract_relevant_rules(sorted(referenced))
        else:
            extracted = Program()
    timings.extract = span.duration

    if not delta_rules:
        return UpdateResult([], 0, [], timings)

    # Steps 2-3: composite PCG and its (incremental) transitive closure.
    with database.span("closure", "update") as span:
        composite = Program(list(extracted) + delta_rules)
        new_closure_pairs = 0
        if stored.compiled_storage:
            new_edges: list[tuple[str, str]] = []
            for clause in delta_rules:
                for atom in clause.body:
                    new_edges.append((clause.head_predicate, atom.predicate))
            new_closure_pairs = stored.add_edges_incremental(new_edges)
    timings.closure = span.duration

    # Step 4: type checking over the composite rules.
    with database.span("typecheck", "update") as span:
        derived = composite.derived_predicates
        base_candidates = sorted(
            {
                p
                for clause in composite.rules
                for p in clause.body_predicates
                if p not in derived
            }
        )
        base_types = catalog.types_of(base_candidates)
        # Body references may point at stored derived predicates whose rules
        # were not extracted (always so in source-only mode); their types come
        # from the intensional dictionary.
        dictionary_types = stored.derived_types_of(
            sorted(derived | set(base_candidates))
        )
        try:
            # allow_undefined: a stored rule may reference predicates whose
            # definitions arrive in a later update (paper section 3.1).
            environment = infer_types(
                composite,
                {**base_types, **dictionary_types},
                allow_undefined=True,
            )
        except Exception as error:
            # Undo any closure pairs already written in step 3.
            database.rollback()
            raise UpdateError(
                f"update rejected by type checking: {error}"
            ) from error
    timings.typecheck = span.duration

    # Optional vetting: collect-all analysis over the composite rules, run
    # before anything is written so a rejected update leaves the Stored D/KB
    # untouched (the closure pairs from step 3 are rolled back).
    if lint:
        with database.span("lint", "update") as span:
            report = analyze(
                composite,
                config=VET_CONFIG,
                base_types=base_types,
                dictionary_types=dictionary_types,
            )
        timings.lint = span.duration
        if report.has_errors:
            database.rollback()
            raise UpdateError(
                "update rejected by static analysis: "
                + "; ".join(str(d) for d in report.errors)
            )

    # Steps 5-7: write the dictionary, closure, and source structures.  The
    # dictionary read of step 4 already holds every stored derived
    # predicate of the composite, so registration reads nothing again.
    with database.span("store", "update") as span:
        types = {p: environment.of(p) for p in derived}
        try:
            new_predicates = stored.register_predicates(types, dictionary_types)
        except UpdateError:
            # Undo the closure pairs of step 3 before reporting.
            database.rollback()
            raise
        stored.store_rules(delta_rules)
        database.commit()
    timings.store = span.duration

    return UpdateResult(delta_rules, new_closure_pairs, new_predicates, timings)
