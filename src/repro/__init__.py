"""repro — a reproduction of the Honeywell D/KBMS testbed (SIGMOD 1988).

A two-layer data/knowledge base management system: the Knowledge Manager
compiles pure, function-free Horn clause queries into embedded-SQL query
programs, which the DBMS layer (SQLite) executes bottom-up with naive or
semi-naive least-fixed-point evaluation, optionally restricted by the
generalized magic sets optimization.

Quick start::

    from repro import Testbed

    tb = Testbed()
    tb.define('''
        parent(john, mary).
        parent(mary, sue).
        ancestor(X, Y) :- parent(X, Y).
        ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
    ''')
    result = tb.query("?- ancestor(john, X).")
    print(result.rows)          # [('mary',), ('sue',)]

See :mod:`repro.km` for the Knowledge Manager, :mod:`repro.runtime` for the
evaluation strategies, :mod:`repro.workloads` for the paper's synthetic
workload generators, :mod:`repro.bench` for the experiment harness that
regenerates every figure and table of the paper's evaluation, and
:mod:`repro.server` for the concurrent multi-session query server
(``python -m repro serve``).
"""

from .datalog import (
    Atom,
    Clause,
    Constant,
    Program,
    Query,
    Variable,
    fact,
    parse_clause,
    parse_program,
    parse_query,
)
from .errors import (
    CatalogError,
    CodeGenerationError,
    EvaluationError,
    OptimizationError,
    ParseError,
    SafetyError,
    SemanticError,
    TestbedError,
    TypeInferenceError,
    UndefinedPredicateError,
    UpdateError,
    WorkloadError,
)
from .dbms.engine import ConnectionOptions
from .km import QueryResult, Testbed, TestbedConfig
from .maintenance import MaintenancePolicy, MaintenanceResult
from .obs import (
    MetricsRegistry,
    Span,
    Tracer,
    render_span_tree,
    write_chrome_trace,
)
from .runtime import LfpStrategy

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "CatalogError",
    "Clause",
    "CodeGenerationError",
    "ConnectionOptions",
    "Constant",
    "EvaluationError",
    "LfpStrategy",
    "MaintenancePolicy",
    "MaintenanceResult",
    "MetricsRegistry",
    "OptimizationError",
    "ParseError",
    "Program",
    "Query",
    "QueryResult",
    "SafetyError",
    "SemanticError",
    "Span",
    "Testbed",
    "TestbedConfig",
    "TestbedError",
    "Tracer",
    "TypeInferenceError",
    "UndefinedPredicateError",
    "UpdateError",
    "Variable",
    "WorkloadError",
    "fact",
    "parse_clause",
    "parse_program",
    "parse_query",
    "render_span_tree",
    "write_chrome_trace",
]
