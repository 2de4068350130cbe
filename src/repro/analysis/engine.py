"""The diagnostics engine: pass registry, analysis context, and driver.

A *pass* is a function from an :class:`AnalysisContext` to an iterable of
:class:`~repro.analysis.diagnostics.Diagnostic` values, registered under a
stable name with the :func:`analysis_pass` decorator.  :func:`analyze` runs
the selected passes in registration order and returns everything they found
as one :class:`~repro.analysis.diagnostics.DiagnosticReport` — it never
raises on a bad program, only on a misconfigured analysis.

The four error-level passes (definedness, safety, stratification, types)
mirror the checks of the paper's Semantic Checker; :mod:`repro.km.semantic`
preserves its fail-fast exception precedence by walking the report in that
explicit code order (the report itself is sorted for determinism).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from ..datalog.clauses import Clause, Program, Query
from ..datalog.pcg import PredicateConnectionGraph
from ..datalog.typecheck import _VALID_TYPES, TypeEnvironment, infer_types
from ..errors import TestbedError, TypeInferenceError
from .codes import INTERNAL_ERROR
from .diagnostics import Diagnostic, DiagnosticReport, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dbms.catalog import ExtensionalCatalog
    from ..km.partition import PartitionSpec

PassFn = Callable[["AnalysisContext"], Iterable[Diagnostic]]

#: The error-level passes backing the Semantic Checker, in check order.
SEMANTIC_PASSES = ("definedness", "safety", "stratification", "types")

#: The partition-aware passes (DK100–DK105); no-ops without a PartitionSpec.
PARTITION_PASSES = (
    "partition-pinnability",
    "partition-join-locality",
    "partition-broadcast-write",
    "partition-route-coverage",
    "partition-negation-locality",
    "partition-replica-safety",
)

_REGISTRY: dict[str, PassFn] = {}


def analysis_pass(name: str) -> Callable[[PassFn], PassFn]:
    """Register a pass function under ``name`` (decorator).

    Raises:
        ValueError: when ``name`` is already taken.
    """

    def decorate(fn: PassFn) -> PassFn:
        if name in _REGISTRY:
            raise ValueError(f"analysis pass {name!r} is already registered")
        _REGISTRY[name] = fn
        return fn

    return decorate


def registered_passes() -> tuple[str, ...]:
    """Names of all registered passes, in registration order."""
    _ensure_builtin_passes()
    return tuple(_REGISTRY)


def _ensure_builtin_passes() -> None:
    # The built-in passes live in their own modules (which import this one
    # for the decorator); import lazily to avoid the cycle at module load.
    # Order matters: the semantic passes must keep registry positions 0-3.
    from . import passes as _passes  # noqa: F401
    from . import partition_passes as _partition_passes  # noqa: F401


@dataclass(frozen=True)
class AnalysisConfig:
    """What the driver should run and how strict the passes should be.

    ``passes`` selects (and orders) the passes to run; ``None`` means every
    registered pass.  ``disabled`` removes passes from that selection.
    ``allow_undefined`` tolerates predicates defined in neither the rules
    nor the dictionaries — the stored-D/KB update vetting uses this, because
    the paper's session model allows storing rules whose body predicates are
    defined by a later update.  ``dictionary_defines`` controls whether a
    predicate known only to the intensional dictionary counts as defined
    (the Semantic Checker historically says no).  ``max_diagnostics``
    truncates pathological reports.
    """

    passes: tuple[str, ...] | None = None
    disabled: frozenset[str] = frozenset()
    allow_undefined: bool = False
    dictionary_defines: bool = True
    max_diagnostics: int | None = None

    def selected(self) -> tuple[str, ...]:
        """The pass names the driver will run, in order.

        Raises:
            ValueError: when an explicitly selected pass does not exist.
        """
        available = registered_passes()
        if self.passes is None:
            names = available
        else:
            unknown = [n for n in self.passes if n not in available]
            if unknown:
                raise ValueError(
                    f"unknown analysis passes: {', '.join(sorted(unknown))}"
                )
            names = self.passes
        return tuple(n for n in names if n not in self.disabled)


@dataclass(frozen=True)
class TypeInference:
    """The program's type inference, as the types pass reports it.

    ``conflicts`` holds ``(index, clause, error)`` for every clause whose
    constraints contradict the clauses accepted before it (entry order);
    ``environment`` is inferred from the other clauses.
    """

    environment: TypeEnvironment
    conflicts: tuple[tuple[int, Clause, TypeInferenceError], ...]


@dataclass
class AnalysisContext:
    """Everything a pass may look at, with shared caches.

    ``base_types`` are the extensional dictionary's column types;
    ``dictionary_types`` the intensional dictionary's (stored derived
    predicates).  ``query`` is optional — whole-rulebase lints have none,
    and query-dependent passes skip themselves.  ``partition`` is the
    cluster's :class:`~repro.km.partition.PartitionSpec` when linting for a
    sharded deployment — the DK10x passes skip themselves without one.
    """

    program: Program
    query: Query | None
    base_types: Mapping[str, Sequence[str]]
    dictionary_types: Mapping[str, Sequence[str]]
    config: AnalysisConfig
    partition: "PartitionSpec | None" = None
    _pcg: PredicateConnectionGraph | None = field(default=None, repr=False)
    _clause_index: dict[Clause, int] | None = field(default=None, repr=False)
    _types: TypeInference | None = field(default=None, repr=False)

    def pcg(self) -> PredicateConnectionGraph:
        """The predicate connection graph of the program's rules (cached)."""
        if self._pcg is None:
            self._pcg = PredicateConnectionGraph(self.program.rules)
        return self._pcg

    def types(self) -> TypeInference:
        """Type inference over the program against its valid base types (cached).

        One inference when the program is consistent: inference is
        unification, so a consistent program has consistent prefixes and
        the per-clause fold would exclude nothing.  Only when it raises are
        the clauses folded in one at a time, each conflicting clause
        excluded and recorded, so a conflict names the clause at fault.
        Undefined predicates are tolerated (the definedness pass reports
        them).
        """
        if self._types is None:
            base_types = {
                p: tuple(columns)
                for p, columns in self.base_types.items()
                if set(columns) <= _VALID_TYPES
            }
            try:
                environment = infer_types(
                    self.program, base_types, allow_undefined=True
                )
                self._types = TypeInference(environment, ())
            except TypeInferenceError:
                self._types = _fold_types(self.program, base_types)
        return self._types

    def index_of(self, clause: Clause) -> int | None:
        """Position of ``clause`` in the program (entry order), if present."""
        if self._clause_index is None:
            self._clause_index = {
                c: i for i, c in enumerate(self.program)
            }
        return self._clause_index.get(clause)

    def indexed_rules(self) -> list[tuple[int, Clause]]:
        """The program's rules with their entry-order indexes."""
        return [(i, c) for i, c in enumerate(self.program) if c.is_rule]

    @property
    def known_predicates(self) -> set[str]:
        """Predicates with declared types (both dictionaries, per config)."""
        known = set(self.base_types)
        if self.config.dictionary_defines:
            known.update(self.dictionary_types)
        return known


def _fold_types(
    program: Program, base_types: Mapping[str, Sequence[str]]
) -> TypeInference:
    """Infer clause by clause, excluding each clause that conflicts."""
    environment = infer_types(Program(), base_types)
    kept: list[Clause] = []
    conflicts: list[tuple[int, Clause, TypeInferenceError]] = []
    for index, clause in enumerate(program):
        try:
            environment = infer_types(
                Program([*kept, clause]), base_types, allow_undefined=True
            )
        except TypeInferenceError as error:
            conflicts.append((index, clause, error))
        else:
            kept.append(clause)
    return TypeInference(environment, tuple(conflicts))


def analyze(
    program: Program,
    query: Query | None = None,
    catalog: "ExtensionalCatalog | None" = None,
    config: AnalysisConfig | None = None,
    *,
    base_types: Mapping[str, Sequence[str]] | None = None,
    dictionary_types: Mapping[str, Sequence[str]] | None = None,
    partition: "PartitionSpec | None" = None,
) -> DiagnosticReport:
    """Run the selected analysis passes over ``program``; collect everything.

    Args:
        program: the rules (and optionally facts) to analyze.
        query: the query of interest, when there is one — reachability and
            adornment passes need it.
        catalog: extensional catalog to read base-relation types from when
            ``base_types`` is not given explicitly.
        config: pass selection and strictness (default: all passes, strict).
        base_types: explicit base-relation column types (overrides catalog).
        dictionary_types: intensional-dictionary column types for stored
            derived predicates.
        partition: the cluster partition metadata, enabling the DK10x
            partition-aware passes (skipped when ``None``).

    Returns:
        A report with every diagnostic of every pass, sorted by
        ``(code, locus, message)`` so repeated runs produce byte-identical
        output.  A pass failing internally contributes one ``DK000`` error
        instead of aborting the analysis.

    Raises:
        ValueError: when ``config`` names an unknown pass.
    """
    _ensure_builtin_passes()
    config = config or AnalysisConfig()
    if base_types is None:
        if catalog is not None:
            referenced = set(program.predicates)
            if query is not None:
                referenced.update(query.predicates)
            base_types = catalog.types_of(sorted(referenced))
        else:
            base_types = {}
    return run_passes(
        AnalysisContext(
            program=program,
            query=query,
            base_types=base_types,
            dictionary_types=dictionary_types or {},
            config=config,
            partition=partition,
        )
    )


def run_passes(context: AnalysisContext) -> DiagnosticReport:
    """Run ``context.config``'s passes over ``context`` (see :func:`analyze`).

    The caller keeps ``context`` and with it the passes' cached results,
    such as :meth:`AnalysisContext.types`.
    """
    config = context.config
    names = config.selected()
    diagnostics: list[Diagnostic] = []
    for name in names:
        try:
            diagnostics.extend(_REGISTRY[name](context))
        except TestbedError as error:
            diagnostics.append(
                Diagnostic(
                    INTERNAL_ERROR,
                    Severity.ERROR,
                    f"analysis pass {name!r} failed: {error}",
                )
            )
        if (
            config.max_diagnostics is not None
            and len(diagnostics) >= config.max_diagnostics
        ):
            diagnostics = diagnostics[: config.max_diagnostics]
            break
    # Deterministic report order: truncation happens in pass order (it
    # bounds work), then the surviving findings sort by (code, locus,
    # message) so repeated runs and parallel CI shards agree byte-for-byte.
    diagnostics.sort(key=lambda d: d.sort_key)
    return DiagnosticReport(tuple(diagnostics), names)
