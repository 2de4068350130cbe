"""Synthetic workloads: the paper's D/KB characterisation (section 5.2).

Base relations as directed graphs (lists, full binary trees, DAGs, cyclic
graphs), synthetic rule bases parameterised by the paper's R_s / R_rs /
P_s / P_rs counts, and the canonical ancestor / same-generation query
families with exact selectivity computation.
"""

from .queries import (
    ANCESTOR_RULES,
    ANCESTOR_RULES_LEFT,
    SAME_GENERATION_RULES,
    SelectivityPoint,
    ancestor_query,
    expected_ancestor_answers,
    load_parent_relation,
    make_ancestor_testbed,
    selectivity_of,
)
from .relations import (
    GeneratedRelation,
    first_node_at_level,
    full_binary_trees,
    iter_descendants,
    lists,
    random_cyclic_graph,
    random_dag,
    subtree_size,
    tree_node,
)
from .rulegen import (
    RuleModule,
    SyntheticRuleBase,
    make_module,
    make_predicate_pool,
    make_rule_base,
)

__all__ = [
    "ANCESTOR_RULES",
    "ANCESTOR_RULES_LEFT",
    "GeneratedRelation",
    "RuleModule",
    "SAME_GENERATION_RULES",
    "SelectivityPoint",
    "SyntheticRuleBase",
    "ancestor_query",
    "expected_ancestor_answers",
    "first_node_at_level",
    "full_binary_trees",
    "iter_descendants",
    "lists",
    "load_parent_relation",
    "make_ancestor_testbed",
    "make_module",
    "make_predicate_pool",
    "make_rule_base",
    "random_cyclic_graph",
    "random_dag",
    "selectivity_of",
    "subtree_size",
    "tree_node",
]
