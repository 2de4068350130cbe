"""The Run Time Library.

Bottom-up LFP evaluation strategies (naive, semi-naive) implemented as
embedded-SQL application programs, query-program execution over the
evaluation order list, plus the extension operators the paper's conclusions
call for (a generalized in-DBMS LFP operator and a specialised transitive
closure) and an independent top-down evaluator used as a correctness oracle.
"""

from .context import (
    PHASE_RHS_EVAL,
    PHASE_TEMP_TABLES,
    PHASE_TERMINATION,
    EvaluationContext,
    EvaluationCounters,
    FastPathConfig,
    derived_table_name,
)
from .counting import (
    CountingForm,
    CountingResult,
    counting_applies,
    evaluate_counting,
    recognize_counting_form,
)
from .lfp import evaluate_clique_lfp_operator
from .lfp_cte import (
    CteEligibility,
    FusedProgram,
    cte_eligibility,
    evaluate_clique_lfp_cte,
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
from .transitive_closure import (
    incremental_closure_update,
    reachable_from,
    transitive_closure_python,
    transitive_closure_sql,
)

__all__ = [
    "CountingForm",
    "CountingResult",
    "CteEligibility",
    "cte_eligibility",
    "DEFAULT_STRATEGY",
    "EvaluationContext",
    "SimulatedSchedule",
    "counting_applies",
    "evaluate_counting",
    "lfp_phase_events",
    "recognize_counting_form",
    "simulate_parallel_lfp",
    "sweep_workers",
    "EvaluationCounters",
    "ExecutionResult",
    "FastPathConfig",
    "FusedProgram",
    "LfpResult",
    "LfpStrategy",
    "PHASE_RHS_EVAL",
    "PHASE_TEMP_TABLES",
    "PHASE_TERMINATION",
    "QueryProgram",
    "TopDownEvaluator",
    "derived_table_name",
    "evaluate_clique_lfp_cte",
    "evaluate_clique_lfp_operator",
    "evaluate_clique_naive",
    "evaluate_clique_seminaive",
    "evaluate_nonrecursive",
    "evaluate_rule_into",
    "evaluate_top_down",
    "fuse_program",
    "incremental_closure_update",
    "reachable_from",
    "transitive_closure_python",
    "transitive_closure_sql",
]
