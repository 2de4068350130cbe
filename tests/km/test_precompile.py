"""The precompiled-plan cache: form key, mechanics, and default-on sessions."""

import pytest

from repro import Testbed, TestbedConfig
from repro.datalog.parser import parse_query
from repro.datalog.clauses import Query
from repro.errors import EvaluationError, SemanticError, TypeInferenceError
from repro.km.compiler import CompilationTimings
from repro.km.precompile import PrecompiledQueryCache, cache_key, query_form
from repro.runtime.program import LfpStrategy

from ..conftest import family_descendants

QUERY = "?- ancestor('john', X)."
OTHER = "?- ancestor('mary', X)."


def key(text, optimize=False, strategy=LfpStrategy.SEMINAIVE):
    return cache_key(parse_query(text), optimize, strategy)


class TestQueryForm:
    def test_constants_of_one_type_share_a_form(self):
        assert key(QUERY) == key(OTHER)

    def test_variable_names_do_not_matter(self):
        assert key("?- p(X, Y), q(Y, Z).") == key("?- p(A, B), q(B, C).")

    def test_constant_types_are_kept(self):
        assert key("?- p(1, X).") != key("?- p('1', X).")

    def test_variable_sharing_is_kept(self):
        assert key("?- p(X, X).") != key("?- p(X, Y).")
        assert key("?- p(X, Y), q(Y).") != key("?- p(X, Y), q(X).")

    def test_goals_are_kept_in_order(self):
        assert key("?- p(X), q(X).") != key("?- q(X), p(X).")
        assert key("?- p(X), q(X).") != key("?- p(X), not q(X).")
        assert key("?- p(X, a).") != key("?- p(a, X).")

    def test_answer_variables_are_kept(self):
        goals = parse_query("?- p(X, Y).").goals
        x, y = goals[0].terms
        assert query_form(Query(goals, (x,))) != query_form(Query(goals, (y,)))
        assert query_form(Query(goals, (x, y))) == query_form(Query(goals))

    def test_key_separates_options(self):
        base = key(QUERY)
        assert base != key(QUERY, True)
        assert base != key(QUERY, "auto")
        assert base != key(QUERY, strategy=LfpStrategy.NAIVE)

    @pytest.mark.parametrize("optimize", [True, "auto"])
    def test_rewriting_compiles_are_keyed_by_the_form(self, optimize):
        assert key(QUERY, optimize) == key(OTHER, optimize)
        assert key(QUERY, optimize) != key("?- ancestor(X, 'john').", optimize)


class TestCacheMechanics:
    def test_capacity_evicts_lru(self, family_testbed):
        cache = PrecompiledQueryCache(capacity=2)
        compilation = family_testbed.compile_query(QUERY)
        cache.put("a", compilation)
        cache.put("b", compilation)
        assert cache.get("a", compilation.program.query) is not None
        cache.put("c", compilation)
        assert set(cache.entries()) == {"a", "c"}  # "b" was least recent

    def test_reput_at_capacity_evicts_nothing(self, family_testbed):
        cache = PrecompiledQueryCache(capacity=2)
        compilation = family_testbed.compile_query(QUERY)
        cache.put("a", compilation)
        cache.put("b", compilation)
        cache.put("b", compilation)
        assert set(cache.entries()) == {"a", "b"}

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PrecompiledQueryCache(capacity=0)

    def test_hit_is_rebound_zero_timed_and_marked(self, family_testbed):
        cache = PrecompiledQueryCache()
        compilation = family_testbed.compile_query(QUERY)
        assert not compilation.cached
        cache.put("k", compilation)
        other = parse_query(OTHER)
        hit = cache.get("k", other)
        assert hit.cached
        assert hit.program.query is other
        assert hit.program.order == compilation.program.order
        assert hit.timings == CompilationTimings()
        # The stored entry is untouched: the next hit rebinds it afresh.
        assert cache.entries()["k"].result is compilation

    def test_validate_keeps_entries_for_the_same_state(self, family_testbed):
        cache = PrecompiledQueryCache()
        cache.validate((1, 2, 3))
        cache.put("k", family_testbed.compile_query(QUERY))
        cache.validate((1, 2, 3))
        assert len(cache) == 1
        cache.validate((1, 3, 3))
        assert len(cache) == 0
        assert cache.statistics.invalidations == 1


class TestDefaultOn:
    def test_one_plan_serves_every_constant_of_a_form(self, family_testbed):
        first = family_testbed.query(QUERY)
        second = family_testbed.query(OTHER)
        assert not first.compilation.cached
        assert second.compilation.cached
        assert len(family_testbed.precompiled) == 1
        assert set(first.rows) == family_descendants("john")
        assert set(second.rows) == family_descendants("mary")
        stats = family_testbed.precompiled.statistics
        assert (stats.hits, stats.misses) == (1, 1)

    def test_hit_reports_no_compile_time(self, family_testbed):
        family_testbed.query(QUERY)
        hit = family_testbed.query(QUERY)
        assert hit.compilation.cached
        assert hit.compile_seconds == 0.0
        assert hit.total_seconds == hit.execution_seconds
        assert sum(hit.timings.values()) == hit.total_seconds

    def test_constant_types_do_not_share_a_plan(self, testbed):
        testbed.define_base_relation("tag", ("TEXT", "INTEGER"))
        testbed.load_facts("tag", [("a", 1), ("b", 2)])
        testbed.define("t(X, Y) :- tag(X, Y).")
        assert testbed.query("?- t(X, 1).").rows == [("a",)]
        # Same shape, TEXT where the plan above was checked for INTEGER:
        # it must reach the type checker, not reuse that plan.
        with pytest.raises(TypeInferenceError):
            testbed.query("?- t(X, 'one').")
        assert testbed.query("?- t(X, 2).").compilation.cached

    def test_variable_sharing_does_not_share_a_plan(self, testbed):
        testbed.define_base_relation("e", ("TEXT", "TEXT"))
        testbed.load_facts("e", [("a", "a"), ("a", "b")])
        testbed.define("p(X, Y) :- e(X, Y).")
        assert set(testbed.query("?- p(X, Y).").rows) == {("a", "a"), ("a", "b")}
        diagonal = testbed.query("?- p(X, X).")
        assert not diagonal.compilation.cached
        assert diagonal.rows == [("a",)]
        assert len(testbed.precompiled) == 2

    @pytest.mark.parametrize("optimize", [True, "auto"])
    def test_rewritten_plans_serve_every_constant(self, family_testbed, optimize):
        first = family_testbed.query(QUERY, optimize=optimize)
        other = family_testbed.query(OTHER, optimize=optimize)
        again = family_testbed.query(QUERY, optimize=optimize)
        assert first.compilation.optimized
        assert not first.compilation.cached
        assert other.compilation.cached and again.compilation.cached
        assert len(family_testbed.precompiled) == 1
        assert set(first.rows) == set(again.rows) == family_descendants("john")
        assert set(other.rows) == family_descendants("mary")

    @pytest.mark.parametrize("optimize", ["magic", "supplementary", "on", 1, None])
    def test_other_optimize_values_raise_whatever_the_cache(
        self, family_testbed, optimize
    ):
        for __ in range(2):  # cold, then with the form's plan cached
            with pytest.raises(ValueError):
                family_testbed.compile_query(QUERY, optimize=optimize)
            with pytest.raises(ValueError):
                family_testbed.query(QUERY, optimize=optimize)
            family_testbed.query(QUERY)
        family_testbed.materialize("ancestor")
        with pytest.raises(ValueError):
            family_testbed.query(QUERY, optimize=optimize)

    @pytest.mark.parametrize("strategy", [LfpStrategy.LFP_CTE, LfpStrategy.SEMINAIVE])
    def test_rewritten_rebind_seeds_from_the_query(self, family_testbed, strategy):
        for root in ("john", "mary", "sue", "nobody", "john"):
            result = family_testbed.query(
                f"?- ancestor('{root}', X).", strategy=strategy
            )
            assert set(result.rows) == family_descendants(root)
        assert len(family_testbed.precompiled) == 1

    def test_precompile_false_neither_reads_nor_fills(self, family_testbed):
        family_testbed.query(QUERY, precompile=False)
        assert len(family_testbed.precompiled) == 0
        family_testbed.query(QUERY)
        fresh = family_testbed.query(QUERY, precompile=False)
        assert not fresh.compilation.cached
        assert fresh.compile_seconds > 0.0
        stats = family_testbed.precompiled.statistics
        assert (stats.hits, stats.misses) == (0, 1)

    def test_fact_loads_do_not_invalidate(self, family_testbed):
        family_testbed.query(QUERY)
        family_testbed.load_facts("parent", [("ann", "zoe")])
        result = family_testbed.query(QUERY)
        assert result.compilation.cached
        # The cached plan still sees new data at execution time.
        assert ("zoe",) in set(result.rows)

    def test_hit_rate(self, family_testbed):
        for __ in range(4):
            family_testbed.query(QUERY)
        assert family_testbed.precompiled.statistics.hit_rate == pytest.approx(
            3 / 4
        )


class TestTrackedInvalidation:
    """``define`` / ``update_stored_dkb``: dependents dropped, the rest kept."""

    def test_new_rule_invalidates_dependents(self, family_testbed):
        family_testbed.query(QUERY)
        family_testbed.define(
            "ancestor(X, Y) :- step_parent(X, Y). step_parent(pat, john)."
        )
        assert len(family_testbed.precompiled) == 0
        result = family_testbed.query("?- ancestor('pat', X).")
        assert family_testbed.precompiled.statistics.invalidations == 1
        assert result.rows == [("john",)]  # only the new rule derives it

    def test_unrelated_rule_keeps_the_plan_usable(self, family_testbed):
        family_testbed.query(QUERY)
        # 'other' reads parent, but the cached plan depends on parent only
        # as a base relation: a rule with head 'other' cannot change it.
        family_testbed.define("other(X) :- parent(X, Y).")
        assert len(family_testbed.precompiled) == 1
        assert family_testbed.query(OTHER).compilation.cached

    def test_update_invalidates_dependents_only(self, family_testbed):
        family_testbed.define("other(X) :- parent(X, Y).")
        family_testbed.update_stored_dkb()
        family_testbed.query("?- other(X).")
        family_testbed.define("ancestor(X, Y) :- parent(Y, X).")
        family_testbed.update_stored_dkb()
        # Stored 'ancestor' changed; the plan for 'other' is still good
        # and still found, although R_s and the workspace both moved.
        assert len(family_testbed.precompiled) == 1
        assert family_testbed.query("?- other(X).").compilation.cached

    def test_update_path_reads_no_stamp(self, family_testbed, monkeypatch):
        family_testbed.query(QUERY)
        monkeypatch.setattr(
            family_testbed, "_dkb_state", lambda: pytest.fail("stamp read")
        )
        family_testbed.define("other(X) :- parent(X, Y).")
        family_testbed.update_stored_dkb()

    def test_clear_workspace_drops_workspace_plans(self, family_testbed):
        family_testbed.query(QUERY)
        family_testbed.clear_workspace()
        with pytest.raises(SemanticError):
            family_testbed.query(QUERY)


class TestUntrackedInvalidation:
    """Changes the session is not told about, caught by the validity triple."""

    def test_direct_workspace_clear(self, family_testbed):
        family_testbed.query(QUERY)
        family_testbed.workspace.clear()
        with pytest.raises(SemanticError):
            family_testbed.query(QUERY)

    def test_direct_workspace_define(self, family_testbed):
        before = family_testbed.query("?- ancestor(X, 'sue').")
        assert ("ann",) not in set(before.rows)
        family_testbed.workspace.define("ancestor(X, Y) :- parent(Y, X).")
        result = family_testbed.query("?- ancestor(X, 'sue').")
        assert not result.compilation.cached
        assert ("ann",) in set(result.rows)

    def test_catalog_drop_and_recreate(self, testbed):
        testbed.define("linked(X, Y) :- link(X, Y).")
        testbed.define_base_relation("link", ("TEXT", "TEXT"))
        testbed.load_facts("link", [("1", "2")])
        assert testbed.query("?- linked(X, Y).").rows == [("1", "2")]
        # Same name, same arity, same dictionary row count — other types.
        testbed.catalog.drop_relation("link")
        testbed.catalog.create_relation("link", ("INTEGER", "INTEGER"))
        testbed.catalog.insert_facts("link", [(1, 2)])
        result = testbed.query("?- linked(X, Y).")
        assert not result.compilation.cached
        assert result.rows == [(1, 2)]

    def test_another_handle_stores_a_rule(self, tmp_path):
        path = str(tmp_path / "kb.sqlite")
        with Testbed(TestbedConfig(path=path)) as a, Testbed(
            TestbedConfig(path=path)
        ) as b:
            a.define_base_relation("parent", ("TEXT", "TEXT"))
            a.define_base_relation("step", ("TEXT", "TEXT"))
            a.load_facts("parent", [("ann", "bob")])
            a.load_facts("step", [("ann", "cal")])
            a.define("anc(X, Y) :- parent(X, Y).")
            a.update_stored_dkb()
            assert a.query("?- anc('ann', X).").rows == [("bob",)]
            assert a.query("?- anc('ann', X).").compilation.cached
            a.database.commit()  # evaluation scratch tables hold a write lock

            b.define("anc(X, Y) :- step(X, Y).")
            b.update_stored_dkb()

            result = a.query("?- anc('ann', X).")
            assert not result.compilation.cached
            assert set(result.rows) == {("bob",), ("cal",)}

    def test_another_handle_drops_a_relation_a_cached_plan_reads(self, tmp_path):
        path = str(tmp_path / "kb.sqlite")
        with Testbed(TestbedConfig(path=path)) as a, Testbed(
            TestbedConfig(path=path)
        ) as b:
            a.define_base_relation("parent", ("TEXT", "TEXT"))
            a.load_facts("parent", [("ann", "bob")])
            a.define("child(X, Y) :- parent(Y, X).")
            a.query("?- child(X, 'ann').")
            warm = a.query("?- child(X, 'bob').")
            # The warm query confirmed 'parent' under its stamp and did not
            # probe it again; the plan itself still probes without one.
            assert warm.compilation.cached
            a.database.commit()
            b.catalog.drop_relation("parent")
            with pytest.raises(EvaluationError, match="not loaded"):
                warm.compilation.program.execute(a.database, a.catalog)
            # The session reads a new stamp, so it compiles afresh.
            with pytest.raises(SemanticError, match="parent"):
                a.query("?- child(X, 'ann').")

    def test_another_handle_creates_a_relation(self, tmp_path):
        path = str(tmp_path / "kb.sqlite")
        with Testbed(TestbedConfig(path=path)) as a, Testbed(
            TestbedConfig(path=path)
        ) as b:
            a.define_base_relation("parent", ("TEXT", "TEXT"))
            a.define("anc(X, Y) :- parent(X, Y).")
            a.query("?- anc(X, Y).")
            a.database.commit()
            # 'anc' becomes a base relation too: a fresh compile refuses
            # the clash, so must the next default query.
            b.define_base_relation("anc", ("TEXT", "TEXT"))
            with pytest.raises(SemanticError):
                a.query("?- anc(X, Y).")
