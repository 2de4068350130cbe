"""Command parsing and execution for the User Interface.

The User Interface is the fourth component of the testbed architecture
(paper Figure 5): it "handles interactions with the user", feeding rules,
facts, and queries to the Knowledge Manager and presenting results.

Input lines are one of:

* Horn clauses (facts or rules), possibly spanning lines until the ``.``;
* queries starting with ``?-``;
* ``:commands`` controlling the session (see :data:`HELP_TEXT`).

Execution is separated from I/O so the interpreter is fully testable: every
entry point takes strings and returns strings.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..analysis import Severity
from ..errors import TestbedError
from ..km.policy import DEFAULT_OPTIMIZE
from ..km.session import QueryResult, Testbed
from ..obs.export import render_span_tree
from ..runtime.program import DEFAULT_STRATEGY, LfpStrategy

HELP_TEXT = """\
Enter Horn clauses ('parent(a, b).', 'anc(X,Y) :- parent(X,Y).'),
queries ('?- anc(a, X).'), or commands:
  :help                 this message
  :strategy [NAME]      show or set LFP strategy (lfp_cte, naive, seminaive)
  :optimize [on|off|auto]  show or set magic sets rewriting (default: auto)
  :explain QUERY        show the generated program fragment for QUERY
  :update               move workspace rules into the stored D/KB
  :workspace            list workspace rules
  :simplify             drop tautological/subsumed workspace rules
  :stored               summarise the stored D/KB
  :relations            list base relations with types and sizes
  :facts PRED           show the tuples of a base relation
  :materialize PRED     materialize a derived predicate as a persistent view
  :refresh [PRED]       recompute materialized views (one, or all)
  :views                list materialized views with freshness and sizes
  :dropview PRED        drop a materialized view
  :load FILE            read clauses from FILE
  :save FILE            write the workspace rules to FILE
  :check                run the static analyzer and the integrity constraints
  :lint [QUERY]         statically analyze the rule base (all findings)
  :timing [on|off]      show or toggle timing output
  :trace [on|off]       toggle tracing, or show the last query's span tree
  :stats                show the tracer's metric snapshot
  :clear                clear the workspace
  :quit                 leave the session"""

PROMPT = "dkb> "
CONTINUATION_PROMPT = "...> "


@dataclasses.dataclass
class SessionState:
    """Mutable interpreter settings."""

    strategy: LfpStrategy = DEFAULT_STRATEGY
    optimize: str = DEFAULT_OPTIMIZE  # off | on | auto
    timing: bool = False

    @property
    def optimize_value(self) -> "bool | str":
        """The ``optimize`` argument the setting stands for."""
        return {"on": True, "off": False}.get(self.optimize, self.optimize)


class CommandInterpreter:
    """Executes one logical input line against a testbed session."""

    def __init__(self, testbed: Testbed):
        self.testbed = testbed
        self.state = SessionState()
        self.finished = False
        self._commands: dict[str, Callable[[str], str]] = {
            "help": lambda __: HELP_TEXT,
            "strategy": self._cmd_strategy,
            "optimize": self._cmd_optimize,
            "explain": self._cmd_explain,
            "update": self._cmd_update,
            "workspace": self._cmd_workspace,
            "simplify": self._cmd_simplify,
            "stored": self._cmd_stored,
            "relations": self._cmd_relations,
            "facts": self._cmd_facts,
            "materialize": self._cmd_materialize,
            "refresh": self._cmd_refresh,
            "views": self._cmd_views,
            "dropview": self._cmd_dropview,
            "load": self._cmd_load,
            "save": self._cmd_save,
            "check": self._cmd_check,
            "lint": self._cmd_lint,
            "timing": self._cmd_timing,
            "trace": self._cmd_trace,
            "stats": self._cmd_stats,
            "clear": self._cmd_clear,
            "quit": self._cmd_quit,
            "exit": self._cmd_quit,
        }

    # -- dispatch ------------------------------------------------------------

    def execute(self, line: str) -> str:
        """Execute one complete input line; return the text to display."""
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            return ""
        try:
            if stripped.startswith(":"):
                return self._execute_command(stripped[1:])
            if stripped.startswith("?-"):
                return self._execute_query(stripped)
            return self._execute_clauses(stripped)
        except TestbedError as error:
            return f"error: {error}"

    @staticmethod
    def needs_continuation(buffer: str) -> bool:
        """Whether ``buffer`` is an incomplete clause awaiting more input."""
        stripped = buffer.strip()
        if not stripped or stripped.startswith(":"):
            return False
        return not stripped.rstrip().endswith(".")

    def _execute_command(self, body: str) -> str:
        name, __, argument = body.partition(" ")
        handler = self._commands.get(name.strip().lower())
        if handler is None:
            return f"unknown command :{name} (try :help)"
        return handler(argument.strip())

    # -- clauses and queries ----------------------------------------------------

    def _execute_clauses(self, text: str) -> str:
        added = self.testbed.define(text)
        facts = sum(1 for c in added if c.is_fact)
        rules = len(added) - facts
        parts = []
        if rules:
            parts.append(f"{rules} rule{'s' if rules != 1 else ''}")
        if facts:
            parts.append(f"{facts} fact{'s' if facts != 1 else ''}")
        if not parts:
            return "ok (nothing new)"
        return "added " + " and ".join(parts)

    def _execute_query(self, text: str) -> str:
        result = self.testbed.query(
            text, optimize=self.state.optimize_value, strategy=self.state.strategy
        )
        return self._format_result(result)

    def _format_result(self, result: QueryResult) -> str:
        lines = []
        for row in sorted(set(result.rows)):
            rendered = ", ".join(str(v) for v in row)
            lines.append(f"  ({rendered})")
        count = len(set(result.rows))
        lines.append(f"{count} answer{'s' if count != 1 else ''}")
        if self.state.timing:
            if result.answered_from_view:
                lines.append(
                    f"t_e = {result.execution_seconds * 1000:.2f} ms "
                    "(answered from materialized view)"
                )
            else:
                cached = " (cached plan)" if result.compilation.cached else ""
                lines.append(
                    f"t_c = {result.compile_seconds * 1000:.2f} ms{cached}, "
                    f"t_e = {result.execution_seconds * 1000:.2f} ms, "
                    f"iterations = {result.execution.total_iterations}, "
                    f"optimized = {result.compilation.optimized}"
                )
        return "\n".join(lines)

    # -- commands -------------------------------------------------------------

    def _cmd_strategy(self, argument: str) -> str:
        if not argument:
            return f"strategy: {self.state.strategy.value}"
        try:
            self.state.strategy = LfpStrategy(argument.lower())
        except ValueError:
            names = ", ".join(s.value for s in LfpStrategy)
            return f"unknown strategy {argument!r} (one of: {names})"
        return f"strategy set to {self.state.strategy.value}"

    def _cmd_optimize(self, argument: str) -> str:
        if not argument:
            return f"optimize: {self.state.optimize}"
        choice = argument.lower()
        if choice not in ("on", "off", "auto"):
            return "usage: :optimize [on|off|auto]"
        self.state.optimize = choice
        return f"optimize set to {choice}"

    def _cmd_explain(self, argument: str) -> str:
        if not argument:
            return "usage: :explain ?- goal(...)."
        return self.testbed.explain(argument, optimize=self.state.optimize_value)

    def _cmd_update(self, __: str) -> str:
        result = self.testbed.update_stored_dkb()
        return (
            f"stored {len(result.new_rules)} rules "
            f"({len(result.new_predicates)} new predicates, "
            f"+{result.new_closure_pairs} closure pairs) "
            f"in {result.timings.total * 1000:.2f} ms"
        )

    def _cmd_workspace(self, __: str) -> str:
        rules = self.testbed.workspace.rules
        if not rules:
            return "workspace is empty"
        return "\n".join(f"  {clause}" for clause in rules)

    def _cmd_simplify(self, __: str) -> str:
        removed = self.testbed.workspace.simplify()
        if not removed:
            return "nothing redundant"
        lines = [f"removed {len(removed)} redundant rules:"]
        lines.extend(f"  {clause}" for clause in removed)
        return "\n".join(lines)

    def _cmd_relations(self, __: str) -> str:
        names = self.testbed.catalog.relation_names()
        if not names:
            return "no base relations"
        types = self.testbed.catalog.types_of(names)
        lines = []
        for name in names:
            columns = ", ".join(types[name])
            count = self.testbed.catalog.fact_count(name)
            lines.append(f"  {name}({columns}): {count} tuples")
        return "\n".join(lines)

    def _cmd_facts(self, argument: str) -> str:
        if not argument:
            return "usage: :facts PREDICATE"
        from ..errors import CatalogError

        try:
            rows = self.testbed.catalog.facts_of(argument)
        except CatalogError as error:
            return f"error: {error}"
        lines = [f"  ({', '.join(str(v) for v in row)})" for row in sorted(rows)]
        lines.append(f"{len(rows)} tuples")
        return "\n".join(lines)

    def _cmd_materialize(self, argument: str) -> str:
        if not argument:
            return "usage: :materialize PREDICATE"
        count = self.testbed.materialize(argument)
        return f"materialized {argument}: {count} tuples"

    def _cmd_refresh(self, argument: str) -> str:
        results = self.testbed.refresh(argument or None)
        if not results:
            return "no materialized views"
        lines = []
        for result in results:
            view = "+".join(result.views)
            lines.append(
                f"refreshed {view}: {result.tuples_added} tuples "
                f"in {result.seconds * 1000:.2f} ms"
            )
        return "\n".join(lines)

    def _cmd_views(self, __: str) -> str:
        infos = self.testbed.views.views()
        if not infos:
            return "no materialized views"
        lines = []
        for info in infos:
            count = self.testbed.views.tuple_count(info.predicate)
            state = "fresh" if info.fresh else "stale"
            lines.append(
                f"  {info.predicate}/{info.arity}: {count} tuples, "
                f"{state}, epoch {info.epoch}"
            )
        return "\n".join(lines)

    def _cmd_dropview(self, argument: str) -> str:
        if not argument:
            return "usage: :dropview PREDICATE"
        self.testbed.drop_view(argument)
        return f"dropped view {argument}"

    def _cmd_stored(self, __: str) -> str:
        return (
            f"stored D/KB: {self.testbed.stored_rule_count} rules, "
            f"{self.testbed.stored_predicate_count} derived predicates, "
            f"{len(self.testbed.catalog.relation_names())} base relations"
        )

    def _cmd_load(self, argument: str) -> str:
        if not argument:
            return "usage: :load FILE"
        try:
            with open(argument) as handle:
                text = handle.read()
        except OSError as error:
            return f"error: {error}"
        added = self.testbed.define(text)
        return f"loaded {len(added)} clauses from {argument}"

    def _cmd_save(self, argument: str) -> str:
        if not argument:
            return "usage: :save FILE"
        rules = self.testbed.workspace.rules
        try:
            with open(argument, "w") as handle:
                for clause in rules:
                    handle.write(f"{clause}\n")
        except OSError as error:
            return f"error: {error}"
        return f"saved {len(rules)} rules to {argument}"

    def _cmd_check(self, __: str) -> str:
        lines = []
        report = self.testbed.lint()
        findings = [
            d for d in report if d.severity.rank <= Severity.WARNING.rank
        ]
        if findings:
            count = len(findings)
            lines.append(f"lint: {count} finding{'s' if count != 1 else ''}")
            lines.extend(f"  {d}" for d in findings)
        violations = self.testbed.check_consistency()
        if not violations:
            lines.append("consistent (no constraint violations)")
        else:
            lines.extend(f"  {v.describe()}" for v in violations)
        return "\n".join(lines)

    def _cmd_lint(self, argument: str) -> str:
        report = self.testbed.lint(argument or None)
        return report.render()

    def _cmd_timing(self, argument: str) -> str:
        if argument.lower() in ("on", "off"):
            self.state.timing = argument.lower() == "on"
        elif argument:
            return "usage: :timing [on|off]"
        else:
            self.state.timing = not self.state.timing
        return f"timing {'on' if self.state.timing else 'off'}"

    def _cmd_trace(self, argument: str) -> str:
        choice = argument.lower()
        if choice == "on":
            self.testbed.enable_tracing()
            return "tracing on"
        if choice == "off":
            self.testbed.disable_tracing()
            return "tracing off"
        if argument:
            return "usage: :trace [on|off]"
        if self.testbed.tracer is None:
            return "tracing is off (enable with :trace on)"
        span = self.testbed.last_query_span
        if span is None:
            return "no traced query yet"
        return render_span_tree(span)

    def _cmd_stats(self, __: str) -> str:
        tracer = self.testbed.tracer
        if tracer is None:
            return "tracing is off (enable with :trace on)"
        return tracer.metrics.render()

    def _cmd_clear(self, __: str) -> str:
        self.testbed.clear_workspace()
        return "workspace cleared"

    def _cmd_quit(self, __: str) -> str:
        self.finished = True
        return "bye"
