"""The Semantic Checker (paper section 3.2.4), on top of the analysis engine.

Two checks run after the relevant rules are assembled:

1. **Definedness** — every derived predicate reachable from the query has at
   least one defining rule (a predicate defined by neither rules nor a base
   relation is an error).
2. **Type checking** — infer the column types of every relevant derived
   predicate and verify all defining rules agree
   (:mod:`repro.datalog.typecheck`), cross-checking against any types already
   recorded in the intensional data dictionary.

We additionally run the safety (range-restriction) check the paper defers to
future work, because unsafe rules cannot be compiled to SQL anyway, and the
stratification check for the negation extension.

Since the analyzer PR, all four checks run through the collect-all
diagnostics engine (:mod:`repro.analysis`): :func:`check_semantics` asks the
engine for the error-level passes and, to preserve the paper's fail-fast
contract, raises the historical exception type for the highest-precedence
code present — definedness before safety before stratification before
types, the paper's check order.  (The report itself is sorted by code for
deterministic output, so precedence is applied here explicitly rather than
by report position.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..analysis import (
    SEMANTIC_PASSES,
    AnalysisConfig,
    AnalysisContext,
    DiagnosticReport,
    run_passes,
)
from ..analysis import codes as diagnostic_codes
from ..datalog.clauses import Program, Query
from ..datalog.typecheck import TypeEnvironment
from ..errors import (
    SafetyError,
    SemanticError,
    StratificationError,
    TypeInferenceError,
    UndefinedPredicateError,
)

#: Diagnostic code -> the exception type the Semantic Checker raises for it.
EXCEPTION_BY_CODE: dict[str, type[SemanticError]] = {
    diagnostic_codes.UNDEFINED_PREDICATE: UndefinedPredicateError,
    diagnostic_codes.UNSAFE_RULE: SafetyError,
    diagnostic_codes.UNSTRATIFIABLE_NEGATION: StratificationError,
    diagnostic_codes.TYPE_CONFLICT: TypeInferenceError,
}

#: The paper's check order: which error the fail-fast checker raises first
#: when a rule base has several independent problems.
ERROR_PRECEDENCE = (
    diagnostic_codes.UNDEFINED_PREDICATE,
    diagnostic_codes.UNSAFE_RULE,
    diagnostic_codes.UNSTRATIFIABLE_NEGATION,
    diagnostic_codes.TYPE_CONFLICT,
)

#: The engine configuration reproducing the historical fail-fast checks:
#: only the error-level passes, and intensional-dictionary entries do not
#: count as definitions (they are cross-checked, not trusted).
SEMANTIC_CONFIG = AnalysisConfig(
    passes=SEMANTIC_PASSES, dictionary_defines=False
)


@dataclass(frozen=True)
class SemanticReport:
    """Everything the checks establish about the relevant rules."""

    types: TypeEnvironment
    derived_predicates: frozenset[str]
    base_predicates: frozenset[str]


def raise_semantic_errors(report: DiagnosticReport) -> None:
    """Raise the historical exception for the worst error of ``report``.

    Codes are tried in :data:`ERROR_PRECEDENCE` (the paper's check order) —
    the report's own order is a deterministic sort by code, not check order,
    so precedence lives here.  ``DK001`` (unsafe rule) findings are
    aggregated into one :class:`SafetyError` listing every violation,
    matching the pre-engine :func:`repro.datalog.safety.check_program`
    message.

    Raises:
        UndefinedPredicateError: for a ``DK004`` finding.
        SafetyError: for ``DK001`` findings (all of them, joined).
        StratificationError: for a ``DK002`` finding.
        TypeInferenceError: for a ``DK003`` finding.
        SemanticError: for any other error-severity finding.
    """
    errors = report.errors
    for code in ERROR_PRECEDENCE:
        match = next((d for d in errors if d.code == code), None)
        if match is None:
            continue
        if code == diagnostic_codes.UNDEFINED_PREDICATE:
            raise UndefinedPredicateError(match.predicate or "?")
        if code == diagnostic_codes.UNSAFE_RULE:
            raise SafetyError(
                "; ".join(
                    d.message
                    for d in report.by_code(diagnostic_codes.UNSAFE_RULE)
                )
            )
        raise EXCEPTION_BY_CODE[code](match.message)
    for diagnostic in errors:
        raise SemanticError(diagnostic.message)


def check_semantics(
    rules: Program,
    query: Query,
    base_types: Mapping[str, Sequence[str]],
    dictionary_types: Mapping[str, Sequence[str]] | None = None,
) -> SemanticReport:
    """Run both semantic checks for ``query`` over the relevant ``rules``.

    Args:
        rules: the relevant rules (workspace + extracted stored rules).
        query: the user query.
        base_types: column types of base relations, from the extensional
            data dictionary.
        dictionary_types: previously inferred column types of stored derived
            predicates, from the intensional data dictionary (cross-checked
            against fresh inference).

    Raises:
        UndefinedPredicateError: when a referenced predicate is neither a
            base relation nor defined by a rule.
        TypeInferenceError: on any type conflict.
        SafetyError: when a relevant rule is unsafe.
        StratificationError: when negation occurs inside recursion.
    """
    context = AnalysisContext(
        rules, query, base_types, dictionary_types or {}, SEMANTIC_CONFIG
    )
    raise_semantic_errors(run_passes(context))
    # The error passes found nothing: no clause conflicted, every base
    # type is valid and every predicate is defined, so the types pass's
    # inference is the whole program's.
    return SemanticReport(
        context.types().environment,
        frozenset(rules.derived_predicates),
        frozenset(set(base_types)),
    )
