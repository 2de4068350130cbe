"""Property tests: the analyzer is total and order-insensitive.

Whatever rule base the synthetic generator produces — any size, any
relevant-subset split, optionally mutilated by dropping rules so predicates
go undefined — ``analyze`` must return a report, never raise.  And the
*set* of distinct codes it reports must not depend on the order the clauses
are listed in: lint verdicts that change when rules are shuffled would make
the CI gate flaky by construction.  The types pass, which infers once and
folds clause by clause only on a conflict, reports exactly what the
clause-by-clause fold reports.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import AnalysisConfig, analyze, codes
from repro.datalog.clauses import Program
from repro.datalog.parser import parse_clause, parse_query
from repro.datalog.typecheck import check_query_types, infer_types
from repro.errors import TypeInferenceError
from repro.workloads.rulegen import make_rule_base

rule_base_shapes = st.tuples(
    st.integers(min_value=1, max_value=40),  # total rules R_s
    st.integers(min_value=1, max_value=40),  # relevant rules R_rs
).filter(lambda shape: shape[1] <= shape[0])


def generated(total, relevant):
    rule_base = make_rule_base(total, relevant)
    base_types = {
        name: ("TEXT", "TEXT") for name in rule_base.base_predicates
    }
    return rule_base, base_types


@settings(max_examples=30, deadline=None)
@given(rule_base_shapes)
def test_analyze_never_crashes_on_generated_rule_bases(shape):
    rule_base, base_types = generated(*shape)
    report = analyze(
        rule_base.program,
        parse_query(rule_base.query_text()),
        base_types=base_types,
    )
    # generated rule bases are well-formed: no error-level findings
    assert not report.has_errors
    assert report.passes_run


@settings(max_examples=30, deadline=None)
@given(rule_base_shapes, st.randoms(use_true_random=False))
def test_reported_codes_are_clause_order_insensitive(shape, rng):
    rule_base, base_types = generated(*shape)
    query = parse_query(rule_base.query_text())
    baseline = analyze(rule_base.program, query, base_types=base_types)

    shuffled = list(rule_base.program)
    rng.shuffle(shuffled)
    permuted = analyze(Program(shuffled), query, base_types=base_types)

    assert permuted.code_set() == baseline.code_set()
    assert permuted.counts() == baseline.counts()


@settings(max_examples=20, deadline=None)
@given(
    rule_base_shapes,
    st.randoms(use_true_random=False),
    st.integers(min_value=1, max_value=5),
)
def test_analyze_never_crashes_on_mutilated_rule_bases(shape, rng, drops):
    # dropping random rules leaves dangling references (undefined
    # predicates, broken chains); the analyzer must still just report
    rule_base, base_types = generated(*shape)
    clauses = list(rule_base.program)
    for __ in range(min(drops, len(clauses) - 1)):
        clauses.pop(rng.randrange(len(clauses)))
    report = analyze(
        Program(clauses),
        parse_query(rule_base.query_text()),
        base_types=base_types,
    )
    assert report.counts()["error"] == len(report.errors)


def folded_type_diagnostics(program, query, base_types, dictionary_types):
    """The types pass as a fold: each clause is inferred with the accepted
    prefix, and a conflicting clause is reported and excluded."""
    found = []
    kept = []
    for index, clause in enumerate(program):
        try:
            infer_types(Program([*kept, clause]), base_types, allow_undefined=True)
        except TypeInferenceError as error:
            found.append((codes.TYPE_CONFLICT, str(error), index))
        else:
            kept.append(clause)
    environment = infer_types(Program(kept), base_types, allow_undefined=True)
    for predicate, recorded in sorted(dictionary_types.items()):
        inferred = environment.types.get(predicate, recorded)
        if inferred != recorded:
            message = (
                f"stored dictionary lists {predicate!r} as {recorded} but "
                f"the rules infer {inferred}"
            )
            found.append((codes.TYPE_CONFLICT, message, None))
    for goal in query.goals:
        if goal.predicate not in environment:
            continue
        try:
            check_query_types([goal], environment)
        except TypeInferenceError as error:
            found.append((codes.TYPE_CONFLICT, str(error), None))
    return sorted(found, key=repr)


@settings(max_examples=40, deadline=None)
@given(
    rule_base_shapes,
    st.integers(min_value=0, max_value=4),
    st.randoms(use_true_random=False),
)
def test_types_pass_reports_what_the_clause_fold_reports(shape, seeded, rng):
    rule_base, base_types = generated(*shape)
    clauses = list(rule_base.program)
    derived = sorted(rule_base.program.derived_predicates)
    bases = sorted(base_types)
    for n in range(seeded):
        head = rng.choice(derived)
        kind = rng.randrange(3)
        if kind == 0:  # an INTEGER constant in a TEXT column
            text = f"{head}(X, {n}) :- {rng.choice(bases)}(X, Y)."
        elif kind == 1:  # a column shared with an INTEGER relation
            base_types[f"ints{n}"] = ("INTEGER", "INTEGER")
            text = f"{head}(X, Y) :- ints{n}(X, Y)."
        else:  # one body joins the derived predicate to an INTEGER relation
            base_types[f"ints{n}"] = ("INTEGER", "INTEGER")
            text = f"{head}(X, Y) :- {rng.choice(derived)}(X, Y), ints{n}(X, Y)."
        clauses.insert(rng.randrange(len(clauses) + 1), parse_clause(text))
    dictionary_types = {
        rng.choice(derived): rng.choice((("TEXT", "TEXT"), ("INTEGER", "TEXT")))
    }
    query = parse_query(
        rng.choice((rule_base.query_text(), f"?- {derived[0]}(1, Y)."))
    )
    program = Program(clauses)

    report = analyze(
        program,
        query,
        base_types=base_types,
        dictionary_types=dictionary_types,
        config=AnalysisConfig(passes=("types",)),
    )
    found = sorted(
        ((d.code, d.message, d.clause_index) for d in report), key=repr
    )
    assert found == folded_type_diagnostics(
        program, query, base_types, dictionary_types
    )
    if seeded:
        assert any(index is not None for _, _, index in found)
