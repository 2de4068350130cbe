"""The built-in lint passes over rules, adornments, and compiled SQL.

Each pass reuses machinery the testbed already has — the safety checker, the
stratifier's SCC analysis, type inference, the predicate connection graph,
theta-subsumption, the adornment pass, and the SQL rule compiler — but
*collects* findings as diagnostics instead of raising on the first problem.

Registration order matters for the first four (error-level) passes: it is
the check order of the paper's Semantic Checker, which
:mod:`repro.km.semantic` relies on to reproduce its fail-fast exception
precedence.
"""

from __future__ import annotations

from typing import Iterator

from ..datalog import safety
from ..datalog.adornment import FREE, adorn_program
from ..datalog.clauses import Clause
from ..datalog.pcg import PredicateConnectionGraph
from ..datalog.stratify import has_negation
from ..datalog.subsumption import is_tautology, subsumes
from ..datalog.terms import Variable
from ..datalog.typecheck import _VALID_TYPES, check_query_types
from ..dbms.sqlgen import compile_rule_body
from ..errors import (
    CodeGenerationError,
    OptimizationError,
    TypeInferenceError,
)
from . import codes
from .diagnostics import Diagnostic, Severity
from .engine import AnalysisContext, analysis_pass


@analysis_pass("definedness")
def check_definedness(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """DK004 — referenced predicates nobody defines.

    A predicate is defined when rules derive it, facts assert it, the
    extensional dictionary declares it, or (per config) the intensional
    dictionary lists it.  With ``allow_undefined`` the pass is silent: the
    stored-D/KB session model permits forward references.
    """
    if ctx.config.allow_undefined:
        return
    derived = ctx.program.derived_predicates
    known = ctx.known_predicates
    referenced: set[str] = set()
    for clause in ctx.program.rules:
        referenced.add(clause.head_predicate)
        referenced.update(clause.body_predicates)
    if ctx.query is not None:
        referenced.update(ctx.query.predicates)
    for predicate in sorted(referenced):
        if predicate in derived or predicate in known:
            continue
        if ctx.program.defining(predicate):
            continue  # defined by facts in the analyzed program
        yield Diagnostic(
            codes.UNDEFINED_PREDICATE,
            Severity.ERROR,
            f"no rule or base relation defines predicate {predicate!r}",
            predicate=predicate,
            hint="define it with a rule, load facts for it, or fix the name",
        )


@analysis_pass("safety")
def check_safety(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """DK001 — unsafe (not range-restricted) rules, all of them."""
    for violation in safety.violations(ctx.program):
        yield Diagnostic(
            codes.UNSAFE_RULE,
            Severity.ERROR,
            violation.describe(),
            predicate=violation.clause.head_predicate,
            clause=violation.clause,
            clause_index=violation.index,
            hint="add a positive body atom binding the listed variables",
        )


@analysis_pass("stratification")
def check_stratification(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """DK002 — negation inside recursion, with the offending cycle printed.

    Reimplements the stratifier's SCC test but reports *every* negative
    edge trapped in a cycle, each with an actual predicate cycle the user
    can follow (the stratifier itself stops at the first).
    """
    program = ctx.program
    if not has_negation(program):
        return
    derived = program.derived_predicates
    pcg = ctx.pcg()
    negative_edges: set[tuple[str, str]] = set()
    for clause in program.rules:
        for atom in clause.body:
            if atom.negated and atom.predicate in derived:
                negative_edges.add((clause.head_predicate, atom.predicate))

    component_of: dict[str, int] = {}
    for index, component in enumerate(pcg.strongly_connected_components()):
        for predicate in component:
            component_of[predicate] = index

    for head, body in sorted(negative_edges):
        if component_of.get(head) != component_of.get(body):
            continue
        cycle = _cycle_through(pcg, head, body)
        yield Diagnostic(
            codes.UNSTRATIFIABLE_NEGATION,
            Severity.ERROR,
            f"negation of {body!r} inside the recursive cycle "
            f"{' -> '.join(cycle)}; the program is not stratifiable",
            predicate=head,
            hint="break the cycle or move the negated predicate to a "
            "lower stratum",
        )


def _cycle_through(
    pcg: PredicateConnectionGraph, head: str, body: str
) -> list[str]:
    """A concrete cycle ``head -> body -> ... -> head`` witnessing the SCC.

    ``head -> body`` is a known edge; BFS finds the shortest way back from
    ``body`` to ``head``.
    """
    parents: dict[str, str] = {}
    frontier = [body]
    seen = {body}
    while frontier:
        node = frontier.pop(0)
        if node == head:
            break
        for successor in sorted(pcg.successors(node)):
            if successor not in seen:
                seen.add(successor)
                parents[successor] = node
                frontier.append(successor)
    path = [head]
    node = head
    while node != body:
        node = parents[node]
        path.append(node)
    path.append(head)
    path.reverse()  # head -> body -> ... -> head
    return path


@analysis_pass("types")
def check_types(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """DK003 — type conflicts, aggregated per clause.

    A clause whose constraints contradict the clauses accepted before it
    (entry order) is reported and *excluded*, so one bad rule does not
    drown every later rule in follow-on conflicts
    (:meth:`AnalysisContext.types`).  The surviving environment is then
    cross-checked against the intensional dictionary and the query
    constants, exactly as the Semantic Checker does.
    """
    for predicate, columns in ctx.base_types.items():
        bad = [c for c in columns if c not in _VALID_TYPES]
        if bad:
            yield Diagnostic(
                codes.TYPE_CONFLICT,
                Severity.ERROR,
                f"relation {predicate!r} declares unsupported types {bad}",
                predicate=predicate,
            )

    inference = ctx.types()
    for index, clause, error in inference.conflicts:
        yield Diagnostic(
            codes.TYPE_CONFLICT,
            Severity.ERROR,
            str(error),
            predicate=clause.head_predicate,
            clause=clause,
            clause_index=index,
            hint="make the rules defining the predicate agree on one "
            "column type",
        )
    environment = inference.environment

    for predicate, recorded in sorted(ctx.dictionary_types.items()):
        if predicate in environment:
            inferred = environment.of(predicate)
            if inferred != tuple(recorded):
                yield Diagnostic(
                    codes.TYPE_CONFLICT,
                    Severity.ERROR,
                    f"stored dictionary lists {predicate!r} as "
                    f"{tuple(recorded)} but the rules infer {inferred}",
                    predicate=predicate,
                )

    if ctx.query is not None:
        for goal in ctx.query.goals:
            if goal.predicate not in environment:
                continue  # undefined: the definedness pass reported it
            try:
                check_query_types([goal], environment)
            except TypeInferenceError as error:
                yield Diagnostic(
                    codes.TYPE_CONFLICT,
                    Severity.ERROR,
                    str(error),
                    predicate=goal.predicate,
                    hint="match the query constant to the column type",
                )


@analysis_pass("reachability")
def check_reachability(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """DK005 / DK007 — dead rules and never-referenced predicates.

    With a query, every rule whose head predicate is unreachable from the
    query goals is dead weight for this query (DK005, via PCG
    reachability).  Independently, a derived predicate no rule body and no
    query ever mentions is a root nothing consumes (DK007).
    """
    if ctx.query is not None:
        roots = set(ctx.query.predicates)
        live = roots | ctx.pcg().reachable_from(*roots)
        for index, clause in ctx.indexed_rules():
            head = clause.head_predicate
            if head not in live:
                yield Diagnostic(
                    codes.DEAD_RULE,
                    Severity.WARNING,
                    f"rule #{index} defining {head!r} is unreachable from "
                    f"the query {ctx.query}",
                    predicate=head,
                    clause=clause,
                    clause_index=index,
                    hint="remove the rule or query a predicate that "
                    "depends on it",
                )

    referenced = {
        atom.predicate
        for clause in ctx.program.rules
        for atom in clause.body
    }
    if ctx.query is not None:
        referenced.update(ctx.query.predicates)
    for predicate in sorted(ctx.program.derived_predicates):
        if predicate not in referenced:
            yield Diagnostic(
                codes.UNREFERENCED_PREDICATE,
                Severity.INFO,
                f"derived predicate {predicate!r} is never referenced by "
                "another rule"
                + ("" if ctx.query is None else " or the query"),
                predicate=predicate,
            )


@analysis_pass("redundancy")
def check_redundancy(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """DK006 — tautologies, duplicates, and theta-subsumed rules.

    Mirrors :func:`repro.datalog.subsumption.simplify_program`'s keep/evict
    walk, but reports instead of removing: a rule subsumed by an earlier
    kept rule is flagged (as a *duplicate* when the subsumption is mutual,
    i.e. the rules are variants), and a kept rule evicted by a later, more
    general rule is flagged at that point.
    """
    kept: list[tuple[int, Clause]] = []
    for index, clause in ctx.indexed_rules():
        if is_tautology(clause):
            yield Diagnostic(
                codes.REDUNDANT_RULE,
                Severity.WARNING,
                f"rule #{index} defining {clause.head_predicate!r} is a "
                f"tautology ({clause} repeats its head in its own body)",
                predicate=clause.head_predicate,
                clause=clause,
                clause_index=index,
                hint="delete the rule; it can never derive a new tuple",
            )
            continue
        subsumer = next(
            ((i, k) for i, k in kept if subsumes(k, clause)), None
        )
        if subsumer is not None:
            other_index, other = subsumer
            kind = (
                "a duplicate (variant) of"
                if subsumes(clause, other)
                else "subsumed by"
            )
            yield Diagnostic(
                codes.REDUNDANT_RULE,
                Severity.WARNING,
                f"rule #{index} defining {clause.head_predicate!r} is "
                f"{kind} rule #{other_index} ({other})",
                predicate=clause.head_predicate,
                clause=clause,
                clause_index=index,
                hint="delete the redundant rule; the least fixed point "
                "is unchanged",
            )
            continue
        evicted = [(i, k) for i, k in kept if subsumes(clause, k)]
        for other_index, other in evicted:
            kept.remove((other_index, other))
            yield Diagnostic(
                codes.REDUNDANT_RULE,
                Severity.WARNING,
                f"rule #{other_index} defining {other.head_predicate!r} is "
                f"subsumed by the more general rule #{index} ({clause})",
                predicate=other.head_predicate,
                clause=other,
                clause_index=other_index,
                hint="delete the redundant rule; the least fixed point "
                "is unchanged",
            )
        kept.append((index, clause))


@analysis_pass("adornment")
def check_adornment(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """DK008 — all-free adornments on recursive predicates.

    Adorns the program for the query with the SIP the optimizer uses (most
    bound atom first, :func:`repro.datalog.adornment.sip_order`) and flags
    every recursive predicate that ends up called with an all-``f``
    adornment: magic sets cannot restrict such a call, so the
    optimization degenerates to full materialization for that clique (the
    crossover the paper's Test 7 measures).
    """
    if ctx.query is None or len(ctx.query.goals) != 1:
        return
    goal = ctx.query.goals[0]
    derived = ctx.program.derived_predicates
    if goal.predicate not in derived:
        return
    try:
        adorned = adorn_program(ctx.program, ctx.query, derived)
    except OptimizationError:
        return
    pcg = ctx.pcg()
    for predicate in sorted(adorned.adornments):
        if not pcg.is_recursive(predicate):
            continue
        for adornment in sorted(adorned.adornments[predicate]):
            if adornment and set(adornment) == {FREE}:
                yield Diagnostic(
                    codes.ALL_FREE_RECURSION,
                    Severity.WARNING,
                    f"recursive predicate {predicate!r} is called with the "
                    f"all-free adornment {adornment!r}; magic sets cannot "
                    "restrict its evaluation",
                    predicate=predicate,
                    hint="bind at least one argument in the query or the "
                    "calling rule",
                )


@analysis_pass("plan")
def check_compiled_plan(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """DK009 / DK010 — trouble visible in the compiled SQL join structure.

    Compiles each rule body to its :class:`CompiledSelect` and inspects the
    join structure: positive FROM-list slots that no join equality connects
    to the rest form a cartesian product (DK009).  Recursive rules whose
    compiled form carries no constant parameters rescan their relations
    unrestricted every LFP iteration (DK010, informational).
    """
    pcg = ctx.pcg()
    for index, clause in ctx.indexed_rules():
        positive = [atom for atom in clause.body if not atom.negated]
        if not positive:
            continue
        try:
            compiled = compile_rule_body(clause)
        except CodeGenerationError:
            continue  # unsafe body: the safety pass reported it
        if compiled.positive_count >= 2:
            components = _join_components(positive)
            if len(components) > 1:
                described = " x ".join(
                    "{" + ", ".join(sorted(c)) + "}" for c in components
                )
                yield Diagnostic(
                    codes.CARTESIAN_PRODUCT,
                    Severity.WARNING,
                    f"rule #{index} defining {clause.head_predicate!r} "
                    f"compiles to a SELECT over {compiled.positive_count} "
                    f"relations whose join structure is disconnected "
                    f"({described}): a cartesian product",
                    predicate=clause.head_predicate,
                    clause=clause,
                    clause_index=index,
                    hint="share a variable between the disconnected body "
                    "atoms, or split the rule",
                )
        recursive = any(
            atom.predicate == clause.head_predicate
            or clause.head_predicate in pcg.reachable_from(atom.predicate)
            for atom in positive
        )
        if recursive and not compiled.parameters:
            yield Diagnostic(
                codes.CONSTANT_FREE_RECURSION,
                Severity.INFO,
                f"recursive rule #{index} defining "
                f"{clause.head_predicate!r} compiles with no constant "
                "parameters; each LFP iteration rescans the full relations",
                predicate=clause.head_predicate,
                clause=clause,
                clause_index=index,
                hint="a bound query plus magic sets restricts the "
                "iteration to relevant tuples",
            )


def _join_components(positive: list) -> list[set[str]]:
    """Connected components of the positive atoms under shared variables.

    Two FROM-list slots are connected exactly when the compiled SELECT
    holds a join equality between them, which happens exactly when the
    atoms share a variable; singleton-variable atoms are their own
    component.  Component members are predicate names (deduplicated).
    """
    parent = list(range(len(positive)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first_slot: dict[Variable, int] = {}
    for slot, atom in enumerate(positive):
        for variable in atom.variables:
            anchor = first_slot.setdefault(variable, slot)
            parent[find(slot)] = find(anchor)

    groups: dict[int, set[str]] = {}
    for slot, atom in enumerate(positive):
        groups.setdefault(find(slot), set()).add(atom.predicate)
    return [groups[root] for root in sorted(groups)]
