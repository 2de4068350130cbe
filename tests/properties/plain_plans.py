"""Hypothesis strategies: non-recursive rule bases and their goals.

The sibling of :mod:`tests.properties.linear_cliques` for plans with no
recursive clique, which ``optimize="auto"`` leaves plain and the fused
statement joins in SIP order.  Two families, both over the base relations
``e`` and ``f``, with ``p`` the goal predicate:

* **chains** from the rule generator (:func:`repro.workloads.rulegen.make_module`,
  the compile-time experiments' module shape), one or two bodies per
  predicate, the recursive call first or last;
* **layered programs**: ``c`` over the base relations, ``b`` over ``c``
  and them, ``p`` over all of them, each rule drawn from shapes with a
  repeated variable, a head or body constant, a three-atom join, and a
  negated atom over a lower stratum.

Goals bind the first, the second or both arguments, or repeat a variable.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.workloads.rulegen import make_module

from .linear_cliques import edges, node

__all__ = ["chains", "edges", "layered_programs", "plain_goals", "plain_programs"]


#: Rule shapes: ``{h}`` is the head predicate, ``{q}``, ``{r}`` and ``{s}``
#: lower ones.  A negated atom stays last: the top-down oracle solves a
#: body left to right and needs it ground.
SHAPES = [
    "{h}(X, Y) :- {q}(X, Y).",
    "{h}(X, Y) :- {q}(X, Z), {r}(Z, Y).",
    "{h}(X, Y) :- {r}(Z, Y), {q}(X, Z).",
    "{h}(X, Y) :- {q}(Z, X), {r}(Z, Y).",
    "{h}(X, Y) :- {q}(X, Z), {r}(Z, W), {s}(W, Y).",
    "{h}(X, X) :- {q}(X, Z).",  # repeated head variable
    "{h}(X, Y) :- {q}(X, Y), {r}(Y, Y).",  # repeated body variable
    "{h}(X, 'n1') :- {q}(X, Z).",  # head constant
    "{h}(X, Y) :- {q}(X, 'n2'), {r}(X, Y).",  # body constant
    "{h}(X, Y) :- {q}(X, Y), not {r}(Y, X).",  # negated lower stratum
    "{h}(X, Y) :- {q}(X, Z), {r}(Z, Y), not {s}(X, Y).",
]
LAYERS = [("c", ("e", "f")), ("b", ("c", "e", "f")), ("p", ("b", "c", "e", "f"))]


@st.composite
def layered_programs(draw) -> str:
    """``p`` over ``b`` over ``c`` over ``e``/``f``, one or two rules each."""
    rules = []
    for head, lower in LAYERS:
        for shape in draw(st.lists(st.sampled_from(SHAPES), min_size=1, max_size=2)):
            callee = st.sampled_from(lower)
            rules.append(shape.format(h=head, q=draw(callee), r=draw(callee), s=draw(callee)))
    return " ".join(rules)


@st.composite
def chains(draw) -> str:
    """A rule-generator chain rooted at ``p`` over ``e``.

    Two bodies per predicate double the base references per level; five
    levels stay within the fused statement's bound.
    """
    bodies = draw(st.integers(min_value=1, max_value=2))
    module = make_module("m", draw(st.integers(min_value=1, max_value=7 - bodies)), bodies)
    text = " ".join(str(rule) for rule in module.rules)
    return text.replace(module.base_predicate, "e").replace(module.root_predicate + "(", "p(")


def plain_programs():
    """A chain or a layered program."""
    return st.one_of(chains(), layered_programs())


@st.composite
def plain_goals(draw) -> str:
    """A goal on ``p`` binding the first, second or both arguments, or
    repeating a variable."""
    first, second = draw(node), draw(node)
    return draw(
        st.sampled_from(
            [
                f"?- p('{first}', Y).",
                f"?- p(X, '{second}').",
                f"?- p('{first}', '{second}').",
                "?- p(X, X).",
            ]
        )
    )
