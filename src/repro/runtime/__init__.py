"""The Run Time Library.

Bottom-up LFP evaluation strategies (naive, semi-naive) implemented as
embedded-SQL application programs, query-program execution over the
evaluation order list, the whole plan as one recursive-CTE statement (the
in-DBMS LFP operator the paper's conclusions call for), and an independent
top-down evaluator used as a correctness oracle.
"""

from .context import (
    PHASE_RHS_EVAL,
    PHASE_TEMP_TABLES,
    PHASE_TERMINATION,
    EvaluationContext,
    EvaluationCounters,
    derived_table_name,
)
from .lfp_cte import (
    CteEligibility,
    FusedProgram,
    cte_eligibility,
    fuse_program,
)
from .naive import LfpResult, evaluate_clique_naive
from .parallel_sim import (
    SimulatedSchedule,
    lfp_phase_events,
    simulate_parallel_lfp,
    sweep_workers,
)
from .program import DEFAULT_STRATEGY, ExecutionResult, LfpStrategy, QueryProgram
from .relalg import evaluate_nonrecursive, evaluate_rule_into
from .seminaive import evaluate_clique_seminaive
from .topdown import TopDownEvaluator, evaluate_top_down

__all__ = [
    "CteEligibility",
    "cte_eligibility",
    "DEFAULT_STRATEGY",
    "EvaluationContext",
    "SimulatedSchedule",
    "lfp_phase_events",
    "simulate_parallel_lfp",
    "sweep_workers",
    "EvaluationCounters",
    "ExecutionResult",
    "FusedProgram",
    "LfpResult",
    "LfpStrategy",
    "PHASE_RHS_EVAL",
    "PHASE_TEMP_TABLES",
    "PHASE_TERMINATION",
    "QueryProgram",
    "TopDownEvaluator",
    "derived_table_name",
    "evaluate_clique_naive",
    "evaluate_clique_seminaive",
    "evaluate_nonrecursive",
    "evaluate_rule_into",
    "evaluate_top_down",
    "fuse_program",
]
