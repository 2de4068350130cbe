"""The Knowledge Manager: the paper's core contribution.

Compiles pure, function-free Horn clause queries into linked query programs
executed by the DBMS layer.  Components follow the paper's architecture
(section 3.2): Workspace D/KB Manager, Stored D/KB Manager, Semantic Checker,
Optimizer, Code Generator — orchestrated by the Query Compiler — plus the
stored-D/KB update algorithm and the :class:`~repro.km.session.Testbed`
facade users interact with.
"""

from .codegen import compile_and_link, generate_fragment, link_program
from .compiler import CompilationResult, CompilationTimings, QueryCompiler
from .config import TestbedConfig
from .constraints import (
    RESERVED_PREDICATE,
    Violation,
    check_consistency,
    constraint_rules,
    is_constraint,
)
from .optimizer import OptimizationResult, optimization_applies, optimize
from .policy import (
    DEFAULT_OPTIMIZE,
    AdaptiveDecision,
    decide_rewrite,
)
from .precompile import (
    CacheStatistics,
    PrecompiledQueryCache,
    cache_key,
    query_form,
)
from .semantic import SemanticReport, check_semantics
from .session import QueryResult, Testbed
from .stored import StoredDKB
from .update import UpdateResult, UpdateTimings, update_stored_dkb
from .workspace import WorkspaceDKB

__all__ = [
    "AdaptiveDecision",
    "CacheStatistics",
    "CompilationResult",
    "DEFAULT_OPTIMIZE",
    "decide_rewrite",
    "PrecompiledQueryCache",
    "RESERVED_PREDICATE",
    "Violation",
    "cache_key",
    "check_consistency",
    "constraint_rules",
    "is_constraint",
    "CompilationTimings",
    "OptimizationResult",
    "QueryCompiler",
    "QueryResult",
    "SemanticReport",
    "StoredDKB",
    "Testbed",
    "TestbedConfig",
    "UpdateResult",
    "UpdateTimings",
    "WorkspaceDKB",
    "check_semantics",
    "compile_and_link",
    "generate_fragment",
    "link_program",
    "optimization_applies",
    "optimize",
    "query_form",
    "update_stored_dkb",
]
