"""Integration tests: stored rule bases containing recursion.

The paper's stored D/KBs contain recursive rules; the extraction, closure,
and compilation machinery must handle a recursive stored module exactly like
a workspace one.
"""

import pytest

from repro import Testbed
from repro.workloads.rulegen import make_module


@pytest.fixture
def recursive_stored():
    tb = Testbed()
    module = make_module("m", chain_length=3, recursive=True)
    tb.define_base_relation(module.base_predicate, ("TEXT", "TEXT"))
    tb.workspace.add_clauses(module.rules)
    tb.update_stored_dkb()
    tb.load_facts(module.base_predicate, [("a", "b"), ("b", "c"), ("c", "d")])
    yield tb, module
    tb.close()


class TestRecursiveStoredModule:
    def test_module_has_a_cycle(self):
        module = make_module("m", 3, recursive=True)
        from repro.datalog.clauses import Program
        from repro.datalog.pcg import PredicateConnectionGraph

        pcg = PredicateConnectionGraph(Program(module.rules).rules)
        terminal = module.predicates[-1]
        assert pcg.is_recursive(terminal)

    def test_closure_includes_self_reachability(self, recursive_stored):
        tb, module = recursive_stored
        terminal = module.predicates[-1]
        assert (terminal, terminal) in tb.stored.closure_pairs()

    def test_extraction_pulls_the_whole_module(self, recursive_stored):
        tb, module = recursive_stored
        extracted = tb.stored.extract_relevant_rules([module.root_predicate])
        assert len(extracted.rules) == len(module.rules)

    def test_compiled_query_builds_a_clique(self, recursive_stored):
        tb, module = recursive_stored
        result = tb.compile_query(
            f"?- {module.root_predicate}('a', Y).", optimize=False
        )
        from repro.datalog.pcg import Clique

        cliques = [n for n in result.program.order if isinstance(n, Clique)]
        assert len(cliques) == 1
        assert module.predicates[-1] in cliques[0].predicates

    @pytest.mark.parametrize("optimize", [False, True])
    def test_query_answers(self, recursive_stored, optimize):
        tb, module = recursive_stored
        # p_m_2 = transitive closure of base; p_m_1/p_m_0 extend it by one
        # base step each.  From 'a' the chain a->b->c->d gives:
        #   p_m_2('a', Y): b, c, d;  p_m_1('a', Y): c, d;  p_m_0('a', Y): d.
        query = f"?- {module.root_predicate}('a', Y)."
        rows = sorted(tb.query(query, optimize=optimize).rows)
        assert rows == [("d",)]
        terminal = module.predicates[-1]
        closure = sorted(
            tb.query(f"?- {terminal}('a', Y).", optimize=optimize).rows
        )
        assert closure == [("b",), ("c",), ("d",)]

    def test_second_recursive_module_update(self, recursive_stored):
        tb, module = recursive_stored
        other = make_module("n", 2, recursive=True)
        tb.define_base_relation(other.base_predicate, ("TEXT", "TEXT"))
        tb.workspace.add_clauses(other.rules)
        result = tb.update_stored_dkb()
        assert len(result.new_rules) == len(other.rules)
        terminal = other.predicates[-1]
        assert (terminal, terminal) in tb.stored.closure_pairs()
