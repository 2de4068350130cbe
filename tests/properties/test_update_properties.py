"""Property-based tests: stored-D/KB invariants under random update sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Testbed
from repro.datalog.parser import parse_query
from repro.datalog.pcg import PredicateConnectionGraph
from repro.runtime.topdown import evaluate_top_down

PREDICATES = [f"p{i}" for i in range(6)]

# A random rule p_i(X, Y) :- p_j(X, Z), e(Z, Y) — or a base rule over e.
rule_specs = st.lists(
    st.tuples(
        st.sampled_from(PREDICATES),
        st.one_of(st.none(), st.sampled_from(PREDICATES)),
    ),
    min_size=1,
    max_size=10,
)
batch_splits = st.lists(st.integers(min_value=1, max_value=3), max_size=5)


def rule_text(head, body):
    if body is None:
        return f"{head}(X, Y) :- e(X, Y)."
    return f"{head}(X, Y) :- {body}(X, Z), e(Z, Y)."


# A module, as the perf ledger's update workload defines them: distinct new
# heads calling one another in a chain, the last one calling ``tail`` — a
# stored predicate, one of the module's own heads (closing a cycle), or
# nothing but ``e``.
modules = st.tuples(
    st.lists(st.sampled_from(PREDICATES), min_size=1, max_size=4, unique=True),
    st.one_of(st.none(), st.sampled_from(PREDICATES)),
)
module_sequences = st.lists(modules, min_size=1, max_size=5)
EDGES = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]


def module_rules(heads, tail):
    """The rule texts of one module."""
    return [rule_text(h, b) for h, b in zip(heads, heads[1:])] + [
        rule_text(heads[-1], tail)
    ]


class TestStoredClosureInvariant:
    @given(rule_specs, st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_incremental_closure_equals_rebuild(self, specs, batch_size):
        """However updates are batched, reachablepreds is the exact TC."""
        tb = Testbed()
        try:
            tb.define_base_relation("e", ("TEXT", "TEXT"))
            for start in range(0, len(specs), batch_size):
                for head, body in specs[start : start + batch_size]:
                    tb.workspace.define(rule_text(head, body))
                tb.update_stored_dkb()
            stored_closure = tb.stored.closure_pairs()
            expected = PredicateConnectionGraph(
                tb.stored.all_rules().rules
            ).transitive_closure()
            assert stored_closure == expected
        finally:
            tb.close()

    @given(rule_specs)
    @settings(max_examples=30, deadline=None)
    def test_extraction_complete_and_minimal(self, specs):
        """Extraction returns exactly the rules reachable from the goal."""
        tb = Testbed()
        try:
            tb.define_base_relation("e", ("TEXT", "TEXT"))
            for head, body in specs:
                tb.workspace.define(rule_text(head, body))
            tb.update_stored_dkb()
            all_rules = tb.stored.all_rules()
            pcg = PredicateConnectionGraph(all_rules.rules)
            for goal in PREDICATES:
                wanted = {goal} | pcg.reachable_from(goal)
                expected = {
                    c for c in all_rules.rules if c.head_predicate in wanted
                }
                extracted = set(tb.stored.extract_relevant_rules([goal]).rules)
                assert extracted == expected
        finally:
            tb.close()

    @given(module_sequences)
    @settings(max_examples=60, deadline=None)
    def test_chained_modules_keep_closure_exact(self, modules):
        """Module updates whose new edges chain through each other, hook
        onto stored predicates and close cycles: the incrementally kept
        closure is the rebuilt one, ``new_closure_pairs`` is its growth,
        and the new rules answer as the top-down oracle does."""
        tb = Testbed()
        try:
            tb.define_base_relation("e", ("TEXT", "TEXT"))
            tb.load_facts("e", EDGES)
            defined: set[str] = set()
            for heads, tail in modules:
                texts = module_rules(heads, tail if tail in defined | set(heads) else None)
                before = tb.stored.closure_pairs()
                tb.define("\n".join(texts))
                result = tb.update_stored_dkb()
                defined.update(heads)
                after = tb.stored.closure_pairs()
                assert result.new_closure_pairs == len(after) - len(before)
                tb.stored.rebuild_closure()
                assert tb.stored.closure_pairs() == after
                query = f"?- {heads[0]}('a', Y)."
                program = tb.stored.all_rules()
                expected = evaluate_top_down(program, {"e": EDGES}, parse_query(query))
                assert set(tb.query(query).rows) == expected
        finally:
            tb.close()

    @given(rule_specs)
    @settings(max_examples=20, deadline=None)
    def test_update_is_idempotent(self, specs):
        tb = Testbed()
        try:
            tb.define_base_relation("e", ("TEXT", "TEXT"))
            for head, body in specs:
                tb.workspace.define(rule_text(head, body))
            tb.update_stored_dkb(clear_workspace=False)
            rules_after_first = tb.stored_rule_count
            closure_after_first = tb.stored.closure_pairs()
            result = tb.update_stored_dkb()
            assert result.new_rules == []
            assert tb.stored_rule_count == rules_after_first
            assert tb.stored.closure_pairs() == closure_after_first
        finally:
            tb.close()
