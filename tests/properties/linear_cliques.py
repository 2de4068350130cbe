"""Hypothesis strategies: one-predicate linear cliques and their bound goals.

Each drawn program defines ``p`` over base relations ``e`` and ``f`` with
one to three exit rules and one or two linear recursive rules.  The
recursive shapes cover the three plans a bound goal can get: right-linear
(``p(X, Y) :- e(X, Z), p(Z, Y)``, factored when bound ``bf``, a
pass-through guard when bound ``fb``), its left-linear mirror, and shapes
that pass nothing through (same-generation, a repeated head variable, a
head constant, a filter on the argument passed through).  A filter the SIP
evaluates after the call must stay in the factored magic rule.  Every rule body
is drawn in either order.  Goals bind ``bf``, ``fb`` or ``bb``; edges may
form cycles and self-loops.
"""

from hypothesis import strategies as st

from repro.datalog.adornment import BOUND, adorned_name
from repro.datalog.magic import factored_rewrite, magic_name, magic_rewrite
from repro.datalog.parser import parse_program, parse_query
from repro.runtime.topdown import evaluate_top_down

NODES = ["n0", "n1", "n2", "n3", "n4"]

EXIT_RULES = [
    ("e(X, Y)",),
    ("f(X, Y)",),
    ("e(X, Z)", "f(Z, Y)"),
]
# Exit rules whose heads are not two distinct variables.
ODD_EXIT_RULES = [
    "p(X, X) :- e(X, Y).",  # repeated head variable
    "p(X, 'n0') :- f(X, Y).",  # head constant
]
# (head, body atoms): body atoms are permuted by the draw.
RECURSIVE_RULES = [
    ("p(X, Y)", ("e(X, Z)", "p(Z, Y)")),  # right-linear
    ("p(X, Y)", ("p(X, Z)", "e(Z, Y)")),  # left-linear
    ("p(X, Y)", ("f(X, Z)", "p(Z, Y)")),
    ("p(X, Y)", ("e(X, U)", "p(U, V)", "f(V, Y)")),  # same-generation
    ("p(X, Y)", ("e(X, Z)", "p(Z, Y)", "f(Z, W)")),  # filter after the call
    ("p(X, Y)", ("e(X, Z)", "p(Z, Y)", "f(Y, W)")),  # filter on the free Y
    ("p(X, Y)", ("p(X, Z)", "e(Z, Y)", "f(X, W)")),  # filter on the free X
    ("p(X, X)", ("e(X, Z)", "p(Z, X)")),  # repeated head variable
    ("p(X, 'n1')", ("e(X, Z)", "p(Z, 'n1')")),  # head constant
    ("p(X, Y)", ("p(Z, Y)", "e(Z, X)")),  # right-linear over reversed edges
]

node = st.sampled_from(NODES)
edges = st.lists(st.tuples(node, node), max_size=10, unique=True)


@st.composite
def rule_bodies(draw, head: str, body: tuple[str, ...]) -> str:
    """``head :- body`` with the body in drawn order."""
    return f"{head} :- {', '.join(draw(st.permutations(body)))}."


@st.composite
def linear_cliques(draw) -> str:
    """The rules of one linear clique over ``p``."""
    exits = draw(st.lists(st.sampled_from(EXIT_RULES), min_size=1, max_size=2, unique=True))
    rules = [draw(rule_bodies("p(X, Y)", body)) for body in exits]
    rules += draw(st.lists(st.sampled_from(ODD_EXIT_RULES), max_size=1))
    recursive = draw(
        st.lists(st.sampled_from(RECURSIVE_RULES), min_size=1, max_size=2, unique=True)
    )
    rules += [draw(rule_bodies(head, body)) for head, body in recursive]
    return " ".join(rules)


@st.composite
def bound_goals(draw) -> str:
    """A ``bf``, ``fb`` or ``bb`` goal on ``p``."""
    first, second = draw(node), draw(node)
    return draw(
        st.sampled_from(
            [f"?- p('{first}', Y).", f"?- p(X, '{second}').", f"?- p('{first}', '{second}')."]
        )
    )


def assert_guards_hold(rules: str, facts, goal: str) -> None:
    """Every adorned fact a rewrite of ``goal`` derives is in its magic set.

    Guarded rules make this so; a rule may drop its guard only where the
    guard is implied.  Dropping one that is not lets the rule derive facts
    outside the magic set: still true, so answers may not show it, but
    this does.
    """
    program, query = parse_program(rules), parse_query(goal)
    for rewrite in (
        magic_rewrite(program, query, {"p"}),
        factored_rewrite(program, query, {"p"}),
    ):
        if rewrite is None:
            continue
        for adornment in rewrite.adorned.adornments["p"]:
            name = adorned_name("p", adornment)
            bound = [i for i, letter in enumerate(adornment) if letter == BOUND]
            if not bound:
                continue
            facts_of = evaluate_top_down(
                rewrite.combined, facts, parse_query(f"?- {name}(A0, A1).")
            )
            variables = ", ".join(f"A{i}" for i in range(len(bound)))
            magic = evaluate_top_down(
                rewrite.combined,
                facts,
                parse_query(f"?- {magic_name(name)}({variables})."),
            )
            outside = {row for row in facts_of if tuple(row[i] for i in bound) not in magic}
            assert not outside, (name, sorted(outside))
