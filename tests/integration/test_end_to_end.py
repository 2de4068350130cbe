"""End-to-end integration tests: full sessions through the public API."""

import pytest

from repro import Testbed, LfpStrategy
from repro.workloads.queries import (
    SAME_GENERATION_RULES,
    ancestor_query,
    expected_ancestor_answers,
    make_ancestor_testbed,
)
from repro.workloads.relations import (
    full_binary_trees,
    lists,
    random_cyclic_graph,
    random_dag,
)


class TestAncestorOverAllRelationTypes:
    """Section 5.2's four relation types, all evaluated correctly."""

    @pytest.mark.parametrize(
        "relation",
        [
            lists(3, 6),
            full_binary_trees(1, 5),
            random_dag(80, 5, seed=11),
            random_cyclic_graph(60, 5, cycle_count=3, seed=11),
        ],
        ids=["lists", "tree", "dag", "cyclic"],
    )
    @pytest.mark.parametrize("optimize", [False, True])
    def test_ancestor_matches_graph_reachability(self, relation, optimize):
        tb = make_ancestor_testbed(relation)
        root = relation.edges[0][0]
        rows = set(tb.query(ancestor_query(root), optimize=optimize).rows)
        assert rows == expected_ancestor_answers(relation, root)
        tb.close()


class TestSameGeneration:
    @pytest.fixture
    def tb(self):
        testbed = Testbed()
        testbed.define(SAME_GENERATION_RULES)
        testbed.define(
            """
            up(ann, carol). up(bob, carol). up(carol, eve).
            up(dave, eve).
            flat(carol, dave).
            down(dave, frank). down(eve, grace). down(frank, henry).
            """
        )
        yield testbed
        testbed.close()

    def test_same_generation_answers(self, tb):
        rows = set(tb.query("?- same_generation('ann', Y).").rows)
        # ann -up-> carol -flat- dave -down-> frank, so ann ~ frank;
        # ann -up-> carol -up-> eve: sg(eve,?) needs flat at eve level: none.
        assert rows == {("frank",)}

    def test_optimized_matches(self, tb):
        plain = set(tb.query("?- same_generation('ann', Y).").rows)
        magic = set(tb.query("?- same_generation('ann', Y).", optimize=True).rows)
        assert plain == magic

    def test_all_strategies_match(self, tb):
        results = {
            strategy: sorted(
                tb.query("?- same_generation('ann', Y).", strategy=strategy).rows
            )
            for strategy in LfpStrategy
        }
        assert len(set(map(tuple, results.values()))) == 1


class TestWorkspaceStoredLifecycle:
    def test_full_session(self):
        """The paper's 'typical session' (section 3.1), start to finish."""
        with Testbed() as tb:
            # 1. Create rules and facts in the workspace.
            tb.define(
                """
                parent(a, b). parent(b, c). parent(c, d).
                ancestor(X, Y) :- parent(X, Y).
                ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
                """
            )
            # 2. Query against the workspace.
            assert len(tb.query("?- ancestor('a', X).").rows) == 3
            # 3. Satisfied: update the stored D/KB.
            result = tb.update_stored_dkb()
            assert len(result.new_rules) == 2
            # 4. The workspace is clear, but queries now hit stored rules.
            assert len(tb.workspace.rules) == 0
            assert len(tb.query("?- ancestor('a', X).").rows) == 3
            # 5. New workspace rules can build on stored ones.
            tb.define("grandparent(X, Y) :- parent(X, Z), parent(Z, Y).")
            tb.define("line(X) :- ancestor('a', X).")
            assert len(tb.query("?- line(X).").rows) == 3
            assert sorted(tb.query("?- grandparent(X, Y).").rows) == [
                ("a", "c"),
                ("b", "d"),
            ]

    def test_incremental_growth_of_stored_dkb(self):
        with Testbed() as tb:
            tb.define_base_relation("e", ("TEXT", "TEXT"))
            for level in range(5):
                if level == 0:
                    tb.workspace.define("p0(X, Y) :- e(X, Y).")
                else:
                    tb.workspace.define(
                        f"p{level}(X, Y) :- p{level - 1}(X, Y)."
                    )
                tb.update_stored_dkb()
            assert tb.stored_rule_count == 5
            assert ("p4", "e") in tb.stored.closure_pairs()
            tb.load_facts("e", [("x", "y")])
            assert tb.query("?- p4('x', Y).").rows == [("y",)]


class TestNegationEndToEnd:
    def test_unreachable_nodes(self):
        with Testbed() as tb:
            tb.define(
                """
                edge(a, b). edge(b, c).
                node(a). node(b). node(c). node(d).
                reach(X) :- edge('a', X).
                reach(X) :- reach(Y), edge(Y, X).
                unreach(X) :- node(X), not reach(X).
                """
            )
            rows = set(tb.query("?- unreach(X).").rows)
            assert rows == {("a",), ("d",)}

    def test_unstratifiable_rejected(self):
        from repro.errors import StratificationError

        with Testbed() as tb:
            tb.define("move(a, b). win(X) :- move(X, Y), not win(Y).")
            with pytest.raises(StratificationError):
                tb.query("?- win(X).")


class TestNonLinearRecursion:
    def test_doubly_recursive_ancestor(self):
        """The nonlinear variant anc(X,Y) :- anc(X,Z), anc(Z,Y)."""
        with Testbed() as tb:
            tb.define(
                """
                parent(a, b). parent(b, c). parent(c, d). parent(d, e).
                anc(X, Y) :- parent(X, Y).
                anc(X, Y) :- anc(X, Z), anc(Z, Y).
                """
            )
            for strategy in LfpStrategy:
                rows = set(tb.query("?- anc('a', X).", strategy=strategy).rows)
                assert rows == {("b",), ("c",), ("d",), ("e",)}

    def test_doubly_recursive_converges_faster(self):
        """Quadratic recursion halves the iteration count (log vs linear)."""
        edges = [(f"n{i}", f"n{i + 1}") for i in range(16)]
        with Testbed() as tb_linear, Testbed() as tb_quad:
            for tb, rules in (
                (
                    tb_linear,
                    "anc(X, Y) :- parent(X, Y)."
                    "anc(X, Y) :- parent(X, Z), anc(Z, Y).",
                ),
                (
                    tb_quad,
                    "anc(X, Y) :- parent(X, Y)."
                    "anc(X, Y) :- anc(X, Z), anc(Z, Y).",
                ),
            ):
                tb.define(rules)
                tb.define_base_relation("parent", ("TEXT", "TEXT"))
                tb.load_facts("parent", edges)
            # Iteration counts are the loop's: pin the semi-naive strategy.
            linear = tb_linear.query("?- anc(X, Y).", strategy=LfpStrategy.SEMINAIVE)
            quadratic = tb_quad.query("?- anc(X, Y).", strategy=LfpStrategy.SEMINAIVE)
            assert sorted(linear.rows) == sorted(quadratic.rows)
            assert (
                quadratic.execution.total_iterations
                < linear.execution.total_iterations
            )


class TestFigure1Program:
    """The paper's own Figure 1 rule set evaluated end to end."""

    def test_queryable(self):
        with Testbed() as tb:
            tb.define(
                """
                b1(u, v). b1(v, w).
                b2(m, n). b2(n, o).
                p(X, Y) :- p1(X, Z), q(Z, Y).
                p(X, Y) :- b1(X, Y).
                p1(X, Y) :- b2(X, Z), p1(Z, Y).
                p1(X, Y) :- b2(X, Y).
                p2(X, Y) :- b1(X, Z), p2(Z, Y).
                q(X, Y) :- p(X, Y), p2(X, Y).
                """
            )
            result = tb.query("?- p(X, Y).")
            # p2 has no exit rule, so q is empty and p reduces to b1.
            assert sorted(result.rows) == [("u", "v"), ("v", "w")]
            # Three cliques were evaluated.
            assert len(result.execution.iterations_by_clique) == 3
