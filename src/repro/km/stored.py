"""The Stored D/KB Manager (paper sections 3.2.3 and 4.1).

The intensional database lives in the DBMS as four relations:

* ``ipredicates(predname, arity)`` and ``icolumns(predname, colnumber,
  coltype)`` — the intensional data dictionary, holding the inferred column
  types of derived predicates;
* ``rulesource(ruleid, headpredname, ruletext)`` — the source form of every
  stored rule;
* ``reachablepreds(frompredname, topredname)`` — the *compiled* form: the
  transitive closure of the Predicate Connection Graph of the stored rules.

``reachablepreds`` is what makes relevant-rule extraction a single indexed
SQL query whose cost depends only on the number of rules *extracted*, not on
the total number of rules stored — the paper's central rule-storage-structure
claim (Test 1).  A :class:`StoredDKB` can also be configured *without* the
compiled form (``compiled_storage=False``), in which case extraction must
chase reachability with repeated queries but updates become almost an order
of magnitude faster (Test 8).

The update side keeps the same property: every write an update makes is one
set-at-a-time statement per structure — an indexed ``IN`` probe for which
rules are already stored, two indexed closure reads and one insert for the
closure extension, one batch per dictionary relation and one for the rule
source — so its cost follows the rules being added, never ``R_s``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..datalog.clauses import Clause, Program
from ..datalog.parser import parse_clause
from ..datalog.pcg import PredicateConnectionGraph
from ..dbms.engine import Database
from ..errors import UpdateError

IPREDICATES = "ipredicates"
ICOLUMNS = "icolumns"
RULESOURCE = "rulesource"
REACHABLEPREDS = "reachablepreds"

#: Scalar subquery that moves whenever any handle on the database stores a
#: rule: ``rulesource`` is append-only and ``ruleid`` is AUTOINCREMENT, so
#: the maximum only ever grows, by one per rule stored.
RULE_STAMP_SQL = f"(SELECT MAX(ruleid) FROM {RULESOURCE})"


class StoredDKB:
    """Manages the intensional database storage structures."""

    def __init__(self, database: Database, compiled_storage: bool = True):
        self.database = database
        self.compiled_storage = compiled_storage
        self._ensure_tables()

    def _ensure_tables(self) -> None:
        if self.database.table_exists(RULESOURCE):
            return
        self.database.execute(
            f"CREATE TABLE {IPREDICATES} ("
            "predname TEXT PRIMARY KEY, arity INTEGER NOT NULL)"
        )
        self.database.execute(
            f"CREATE TABLE {ICOLUMNS} ("
            "predname TEXT NOT NULL, colnumber INTEGER NOT NULL, "
            "coltype TEXT NOT NULL, PRIMARY KEY (predname, colnumber))"
        )
        self.database.execute(
            f"CREATE TABLE {RULESOURCE} ("
            "ruleid INTEGER PRIMARY KEY AUTOINCREMENT, "
            "headpredname TEXT NOT NULL, ruletext TEXT NOT NULL UNIQUE)"
        )
        self.database.execute(
            f"CREATE TABLE {REACHABLEPREDS} ("
            "frompredname TEXT NOT NULL, topredname TEXT NOT NULL, "
            "PRIMARY KEY (frompredname, topredname))"
        )
        # "To speed up the execution of this query, both rulesource and
        # reachablepreds are indexed" (section 4.1).
        self.database.create_index("idx_rulesource_head", RULESOURCE, ["headpredname"])
        self.database.create_index(
            "idx_reachable_from", REACHABLEPREDS, ["frompredname"]
        )
        self.database.create_index("idx_reachable_to", REACHABLEPREDS, ["topredname"])
        self.database.create_index("idx_icolumns_pred", ICOLUMNS, ["predname"])
        self.database.commit()

    # -- extraction (query compilation path) ---------------------------------

    def extract_relevant_rules(self, predicates: Iterable[str]) -> Program:
        """All stored rules needed to solve goals over ``predicates``.

        With compiled storage this is the single SQL query of section 4.1:
        rules whose head is one of the predicates *or* reachable from one.
        Without compiled storage, reachability is chased with one query per
        frontier round.
        """
        wanted = sorted(set(predicates))
        if not wanted:
            return Program()
        if self.compiled_storage:
            return self._extract_compiled(wanted)
        return self._extract_source_only(wanted)

    def _extract_compiled(self, predicates: Sequence[str]) -> Program:
        rows = self.database.execute_in(
            f"SELECT DISTINCT r.ruletext FROM {RULESOURCE} AS r "
            f"WHERE r.headpredname IN ({{in}}) "
            f"OR r.headpredname IN ("
            f"  SELECT topredname FROM {REACHABLEPREDS} "
            f"  WHERE frompredname IN ({{in}}))",
            predicates,
        )
        program = Program()
        for (text,) in rows:
            program.add(parse_clause(text))
        return program

    def _extract_source_only(self, predicates: Sequence[str]) -> Program:
        """Frontier-chasing extraction when only source form is stored.

        The transitive closure of the PCG "would have to be computed during
        query compilation" (section 5.3's discussion of Test 1): one indexed
        query per round, parsing as we go, until no new predicate appears.
        """
        program = Program()
        seen: set[str] = set()
        frontier = sorted(set(predicates))
        while frontier:
            rows = self.database.execute_in(
                f"SELECT ruletext FROM {RULESOURCE} WHERE headpredname IN ({{in}})",
                frontier,
            )
            seen.update(frontier)
            next_frontier: set[str] = set()
            for (text,) in rows:
                clause = parse_clause(text)
                if program.add(clause):
                    for predicate in clause.body_predicates:
                        if predicate not in seen:
                            next_frontier.add(predicate)
            frontier = sorted(next_frontier)
        return program

    def reachable_predicates(self, predicates: Iterable[str]) -> set[str]:
        """Predicates reachable from ``predicates`` per the compiled closure."""
        if not self.compiled_storage:
            return set()
        rows = self.database.execute_in(
            f"SELECT DISTINCT topredname FROM {REACHABLEPREDS} "
            f"WHERE frompredname IN ({{in}})",
            sorted(set(predicates)),
        )
        return {name for (name,) in rows}

    # -- intensional data dictionary -----------------------------------------

    def derived_types_of(
        self, predicates: Iterable[str]
    ) -> dict[str, tuple[str, ...]]:
        """Column types of stored derived predicates (the ``t_readdict`` read)."""
        rows = self.database.execute_in(
            f"SELECT p.predname, c.colnumber, c.coltype "
            f"FROM {IPREDICATES} AS p, {ICOLUMNS} AS c "
            f"WHERE p.predname = c.predname AND p.predname IN ({{in}}) "
            f"ORDER BY p.predname, c.colnumber",
            sorted(set(predicates)),
        )
        out: dict[str, list[str]] = {}
        for predicate, __, coltype in rows:
            out.setdefault(predicate, []).append(coltype)
        return {p: tuple(ts) for p, ts in out.items()}

    def register_predicates(
        self,
        types: Mapping[str, Sequence[str]],
        known: Mapping[str, tuple[str, ...]],
    ) -> list[str]:
        """Add the predicates of ``types`` that ``known`` lacks to the
        intensional dictionary: one batch per dictionary relation.

        ``known`` is a :meth:`derived_types_of` read covering every
        predicate of ``types``, taken earlier in the same transaction; a
        predicate it holds is checked against it, not read again.

        Returns:
            The newly registered predicates, sorted.

        Raises:
            UpdateError: on a type conflict with an existing registration
                (nothing is written then).
        """
        new: list[str] = []
        for predicate in sorted(types):
            wanted = tuple(types[predicate])
            existing = known.get(predicate)
            if existing is None:
                new.append(predicate)
            elif existing != wanted:
                raise UpdateError(
                    f"stored predicate {predicate!r} has types {existing}, "
                    f"update would change them to {wanted}"
                )
        if new:
            self.database.executemany(
                f"INSERT INTO {IPREDICATES} VALUES (?, ?)",
                [(p, len(types[p])) for p in new],
            )
            self.database.executemany(
                f"INSERT INTO {ICOLUMNS} VALUES (?, ?, ?)",
                [(p, i, t) for p in new for i, t in enumerate(types[p])],
            )
        return new

    # -- rule storage ----------------------------------------------------------

    def stored_among(self, texts: Sequence[str]) -> set[str]:
        """Which of the canonical rule ``texts`` are already stored.

        One probe of ``rulesource``'s UNIQUE ``ruletext`` index, so the cost
        follows ``len(texts)``, not the number of rules stored.
        """
        rows = self.database.execute_in(
            f"SELECT ruletext FROM {RULESOURCE} WHERE ruletext IN ({{in}})", texts
        )
        return {text for (text,) in rows}

    def rule_texts_with_head(self, predicate: str) -> list[str]:
        """Texts of the stored rules defining ``predicate`` (an index probe)."""
        rows = self.database.execute(
            f"SELECT ruletext FROM {RULESOURCE} WHERE headpredname = ?",
            (predicate,),
        )
        return [text for (text,) in rows]

    def rule_count(self) -> int:
        """Total number of stored rules (the paper's R_s)."""
        rows = self.database.execute(f"SELECT COUNT(*) FROM {RULESOURCE}")
        return int(rows[0][0])

    def predicate_count(self) -> int:
        """Total number of stored derived predicates (the paper's P_s)."""
        rows = self.database.execute(f"SELECT COUNT(*) FROM {IPREDICATES}")
        return int(rows[0][0])

    def store_rules(self, clauses: Iterable[Clause]) -> int:
        """Append rules in source form, one batch; returns how many were new."""
        return self.database.executemany(
            f"INSERT OR IGNORE INTO {RULESOURCE} (headpredname, ruletext) "
            "VALUES (?, ?)",
            [(clause.head_predicate, str(clause)) for clause in clauses],
        )

    def all_rules(self) -> Program:
        """Every stored rule, parsed."""
        rows = self.database.execute(
            f"SELECT ruletext FROM {RULESOURCE} ORDER BY ruleid"
        )
        program = Program()
        for (text,) in rows:
            program.add(parse_clause(text))
        return program

    # -- compiled form maintenance ----------------------------------------------

    def closure_pairs(self) -> set[tuple[str, str]]:
        """The whole ``reachablepreds`` relation (testing/verification aid)."""
        rows = self.database.execute(
            f"SELECT frompredname, topredname FROM {REACHABLEPREDS}"
        )
        return set(rows)

    def add_edges_incremental(self, edges: Iterable[tuple[str, str]]) -> int:
        """Fold new PCG edges into the stored transitive closure.

        Implements the incremental computation of section 4.3 set at a
        time, in three statements however many edges arrive: one indexed
        read of what already reaches the new edges' sources, one of what
        their targets already reach, and one ``INSERT OR IGNORE`` of every
        new pair.  The unaffected part of the closure is never touched.

        A new path may run through several new edges — a module whose rules
        call each other, or an update closing a cycle — linked by old
        closure pairs from a new target to a new source, which the second
        read already returns.  So the new edges plus those links form a
        small graph; each (source, target) pair its closure joins is then
        widened by the two reads: everything reaching the source now reaches
        the target and everything the target reaches.

        Returns:
            Number of closure pairs inserted, as the engine's row count
            reports it: best-effort on engines without DML row counts
            (DuckDB).
        """
        # Lists, not sets: a repeated entry only repeats a pair, which
        # INSERT OR IGNORE drops, and a bulk update keeps less memory alive.
        graph: dict[str, list[str]] = {}
        for source, target in edges:
            graph.setdefault(source, []).append(target)
        if not graph:
            return 0
        targets = sorted({t for ts in graph.values() for t in ts})
        reaching = {s: [s] for s in graph}
        for name, source in self.database.execute_in(
            f"SELECT frompredname, topredname FROM {REACHABLEPREDS} "
            f"WHERE topredname IN ({{in}})",
            sorted(graph),
        ):
            reaching[source].append(name)
        reached = {t: [t] for t in targets}
        links: list[tuple[str, str]] = []
        for target, name in self.database.execute_in(
            f"SELECT frompredname, topredname FROM {REACHABLEPREDS} "
            f"WHERE frompredname IN ({{in}})",
            targets,
        ):
            reached[target].append(name)
            if name in reaching:
                links.append((target, name))
        for target, source in links:
            graph.setdefault(target, []).append(source)

        pairs: list[tuple[str, str]] = []
        for source, lefts in reaching.items():
            # Depth-first over the small graph: every node one or more
            # steps from ``source``.
            seen: set[str] = set()
            stack = list(graph[source])
            while stack:
                node = stack.pop()
                if node not in seen:
                    seen.add(node)
                    stack.extend(graph.get(node, ()))
            rights: set[str] = set()
            for target in seen.intersection(reached):
                rights.update(reached[target])
            pairs.extend((left, right) for left in lefts for right in rights)
        return self.database.executemany(
            f"INSERT OR IGNORE INTO {REACHABLEPREDS} VALUES (?, ?)", pairs
        )

    def rebuild_closure(self) -> int:
        """Recompute ``reachablepreds`` from scratch (recovery/verification).

        Returns the number of closure pairs.
        """
        program = self.all_rules()
        pcg = PredicateConnectionGraph(program.rules)
        pairs = pcg.transitive_closure()
        self.database.execute(f"DELETE FROM {REACHABLEPREDS}")
        self.database.executemany(
            f"INSERT INTO {REACHABLEPREDS} VALUES (?, ?)", sorted(pairs)
        )
        self.database.commit()
        return len(pairs)
