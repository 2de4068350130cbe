"""Unit tests for each built-in lint pass."""

from repro.analysis import AnalysisConfig, Severity, analyze, codes
from repro.datalog.parser import parse_program, parse_query

TT = ("TEXT", "TEXT")


def run(source, passes, query=None, base_types=None, dictionary_types=None,
        **config_kwargs):
    return analyze(
        parse_program(source),
        parse_query(query) if query else None,
        base_types=base_types or {},
        dictionary_types=dictionary_types or {},
        config=AnalysisConfig(passes=passes, **config_kwargs),
    )


class TestDefinedness:
    def test_reports_every_undefined_predicate(self):
        report = run(
            "p(X) :- q(X), r(X).", ("definedness",), base_types={}
        )
        assert report.codes() == (codes.UNDEFINED_PREDICATE,) * 2
        assert {d.predicate for d in report} == {"q", "r"}

    def test_base_facts_and_dictionary_define(self):
        report = run(
            "p(X) :- q(X). q(a).",
            ("definedness",),
            dictionary_types={"r": ("TEXT",)},
        )
        assert len(report) == 0

    def test_dictionary_defines_can_be_disabled(self):
        report = run(
            "p(X) :- r(X).",
            ("definedness",),
            dictionary_types={"r": ("TEXT",)},
            dictionary_defines=False,
        )
        assert report.codes() == (codes.UNDEFINED_PREDICATE,)

    def test_allow_undefined_silences_the_pass(self):
        report = run(
            "p(X) :- q(X).", ("definedness",), allow_undefined=True
        )
        assert len(report) == 0

    def test_undefined_query_goal_reported(self):
        report = run(
            "p(X) :- q(X). q(a).",
            ("definedness",),
            query="?- missing(X).",
        )
        assert {d.predicate for d in report} == {"missing"}


class TestSafety:
    def test_reports_every_unsafe_rule_with_locus(self):
        report = run(
            "ok(X) :- e(X).\n"
            "bad1(X, Y) :- e(X).\n"
            "bad2(X) :- e(X), not f(Y).",
            ("safety",),
            base_types={"e": ("TEXT",), "f": ("TEXT",)},
        )
        assert report.codes() == (codes.UNSAFE_RULE,) * 2
        assert [d.clause_index for d in report] == [1, 2]
        assert "bad1" in report.diagnostics[0].message
        assert "rule #1" in report.diagnostics[0].message


class TestStratification:
    def test_cycle_spanning_three_predicates_is_printed(self):
        report = run(
            "a(X) :- b(X).\n"
            "b(X) :- c(X).\n"
            "c(X) :- e(X), not a(X).",
            ("stratification",),
            base_types={"e": ("TEXT",)},
        )
        assert report.codes() == (codes.UNSTRATIFIABLE_NEGATION,)
        message = report.diagnostics[0].message
        # the actual offending cycle, not just the verdict
        assert "c -> a -> b -> c" in message

    def test_every_trapped_negative_edge_reported(self):
        report = run(
            "p(X) :- e(X), not q(X).\n"
            "q(X) :- e(X), not p(X).",
            ("stratification",),
            base_types={"e": ("TEXT",)},
        )
        assert len(report) == 2

    def test_stratified_negation_is_fine(self):
        report = run(
            "p(X) :- e(X), not q(X).\nq(X) :- f(X).",
            ("stratification",),
            base_types={"e": ("TEXT",), "f": ("TEXT",)},
        )
        assert len(report) == 0


class TestTypes:
    def test_conflicts_aggregated_per_clause(self):
        # two independent conflicts in one run; the first accepted clause
        # pins p's type, each contradicting clause is reported and excluded
        report = run(
            "p(X) :- e(X).\n"
            "p(X) :- n(X).\n"
            "q(X) :- f(X).\n"
            "q(X) :- n(X).",
            ("types",),
            base_types={"e": ("TEXT",), "f": ("TEXT",), "n": ("INTEGER",)},
        )
        assert report.codes() == (codes.TYPE_CONFLICT,) * 2
        assert [d.clause_index for d in report] == [1, 3]

    def test_excluded_clause_does_not_poison_later_rules(self):
        report = run(
            "p(X) :- e(X).\n"
            "p(X) :- n(X).\n"
            "p(X) :- f(X).",
            ("types",),
            base_types={"e": ("TEXT",), "f": ("TEXT",), "n": ("INTEGER",)},
        )
        # only the INTEGER clause conflicts; the third TEXT clause is fine
        assert len(report) == 1

    def test_dictionary_cross_check(self):
        report = run(
            "p(X) :- e(X).",
            ("types",),
            base_types={"e": ("TEXT",)},
            dictionary_types={"p": ("INTEGER",)},
        )
        assert report.codes() == (codes.TYPE_CONFLICT,)
        assert "stored dictionary" in report.diagnostics[0].message

    def test_query_constant_conflict(self):
        report = run(
            "p(X, Y) :- e(X, Y).",
            ("types",),
            query="?- p(1, X).",
            base_types={"e": TT},
        )
        assert report.codes() == (codes.TYPE_CONFLICT,)

    def test_invalid_declared_type_reported(self):
        report = run(
            "p(X) :- e(X).",
            ("types",),
            base_types={"e": ("BLOB",)},
        )
        assert codes.TYPE_CONFLICT in report.code_set()


class TestReachability:
    def test_dead_rule_flagged_only_with_query(self):
        source = "anc(X, Y) :- parent(X, Y).\ndead(X) :- parent(X, X)."
        with_query = run(
            source,
            ("reachability",),
            query="?- anc('a', X).",
            base_types={"parent": TT},
        )
        assert codes.DEAD_RULE in with_query.code_set()
        dead = with_query.by_code(codes.DEAD_RULE)
        assert [d.predicate for d in dead] == ["dead"]
        without_query = run(source, ("reachability",), base_types={"parent": TT})
        assert codes.DEAD_RULE not in without_query.code_set()

    def test_unreferenced_predicate_is_info(self):
        report = run(
            "a(X) :- e(X).\nb(X) :- a(X).",
            ("reachability",),
            base_types={"e": ("TEXT",)},
        )
        unreferenced = report.by_code(codes.UNREFERENCED_PREDICATE)
        assert [d.predicate for d in unreferenced] == ["b"]
        assert unreferenced[0].severity is Severity.INFO


class TestRedundancy:
    def test_tautology_flagged(self):
        report = run(
            "p(X) :- p(X), e(X).", ("redundancy",), base_types={"e": ("TEXT",)}
        )
        assert report.codes() == (codes.REDUNDANT_RULE,)
        assert "tautology" in report.diagnostics[0].message

    def test_negated_self_reference_is_not_a_tautology(self):
        # the subsumption edge case: `not p(X)` in the body of a p-rule is
        # unstratifiable, not tautological — the redundancy pass must not
        # claim the rule can never fire
        report = run(
            "p(X) :- e(X), not p(X).",
            ("redundancy",),
            base_types={"e": ("TEXT",)},
        )
        assert len(report) == 0

    def test_variant_reported_as_duplicate(self):
        report = run(
            "p(X, Y) :- e(X, Y).\np(A, B) :- e(A, B).",
            ("redundancy",),
            base_types={"e": TT},
        )
        assert report.codes() == (codes.REDUNDANT_RULE,)
        assert "duplicate (variant)" in report.diagnostics[0].message
        assert report.diagnostics[0].clause_index == 1

    def test_specialisation_subsumed_by_earlier_general_rule(self):
        report = run(
            "p(X, Y) :- e(X, Y).\np(X, X) :- e(X, X).",
            ("redundancy",),
            base_types={"e": TT},
        )
        assert "subsumed by" in report.diagnostics[0].message

    def test_later_general_rule_evicts_earlier_specialisation(self):
        report = run(
            "p(X, X) :- e(X, X).\np(X, Y) :- e(X, Y).",
            ("redundancy",),
            base_types={"e": TT},
        )
        assert report.codes() == (codes.REDUNDANT_RULE,)
        assert report.diagnostics[0].clause_index == 0

    def test_independent_rules_kept(self):
        report = run(
            "p(X, Y) :- e(X, Y).\np(X, Y) :- f(X, Y).",
            ("redundancy",),
            base_types={"e": TT, "f": TT},
        )
        assert len(report) == 0


class TestAdornment:
    SOURCE = (
        "anc(X, Y) :- parent(X, Y).\n"
        "anc(X, Y) :- parent(X, Z), anc(Z, Y)."
    )

    def test_all_free_recursive_query_flagged(self):
        report = run(
            self.SOURCE,
            ("adornment",),
            query="?- anc(X, Y).",
            base_types={"parent": TT},
        )
        assert report.codes() == (codes.ALL_FREE_RECURSION,)
        assert report.diagnostics[0].predicate == "anc"

    def test_bound_query_is_fine(self):
        report = run(
            self.SOURCE,
            ("adornment",),
            query="?- anc('a', Y).",
            base_types={"parent": TT},
        )
        assert len(report) == 0

    def test_no_query_no_findings(self):
        report = run(self.SOURCE, ("adornment",), base_types={"parent": TT})
        assert len(report) == 0

    def test_left_linear_target_bound_query_is_fine(self):
        # The SIP evaluates parent(Z, Y), bound on Y, before anc(X, Z), so
        # the recursive call is fb; left to right it was ff and warned.
        report = run(
            "anc(X, Y) :- parent(X, Y).\n"
            "anc(X, Y) :- anc(X, Z), parent(Z, Y).",
            ("adornment",),
            query="?- anc(X, 'a').",
            base_types={"parent": TT},
        )
        assert len(report) == 0


class TestPlan:
    def test_cartesian_product_detected(self):
        report = run(
            "pairs(X, Y) :- e(X), f(Y).",
            ("plan",),
            base_types={"e": ("TEXT",), "f": ("TEXT",)},
        )
        assert report.codes() == (codes.CARTESIAN_PRODUCT,)
        assert "cartesian" in report.diagnostics[0].message

    def test_connected_join_is_fine(self):
        report = run(
            "path(X, Y) :- e(X, Z), f(Z, Y).",
            ("plan",),
            base_types={"e": TT, "f": TT},
        )
        assert len(report) == 0

    def test_transitively_connected_components(self):
        # a-b share X, b-c share Y: one component despite a-c sharing nothing
        report = run(
            "t(X, Y, Z) :- a(X), b(X, Y), c(Y, Z).",
            ("plan",),
            base_types={"a": ("TEXT",), "b": TT, "c": TT},
        )
        assert len(report) == 0

    def test_constant_free_recursion_is_info(self):
        report = run(
            "anc(X, Y) :- parent(X, Y).\n"
            "anc(X, Y) :- parent(X, Z), anc(Z, Y).",
            ("plan",),
            base_types={"parent": TT},
        )
        recursion = report.by_code(codes.CONSTANT_FREE_RECURSION)
        assert len(recursion) == 1
        assert recursion[0].severity is Severity.INFO
        assert recursion[0].clause_index == 1

    def test_recursion_with_constants_not_flagged(self):
        report = run(
            "anc(X, Y) :- parent(X, Y).\n"
            "anc(X, Y) :- parent(X, 'z'), anc('z', Y).",
            ("plan",),
            base_types={"parent": TT},
        )
        assert codes.CONSTANT_FREE_RECURSION not in report.code_set()
