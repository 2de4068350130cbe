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
"""

from __future__ import annotations

from typing import Iterable, Sequence

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
        placeholders = ", ".join("?" for __ in predicates)
        rows = self.database.execute(
            f"SELECT DISTINCT r.ruletext FROM {RULESOURCE} AS r "
            f"WHERE r.headpredname IN ({placeholders}) "
            f"OR r.headpredname IN ("
            f"  SELECT topredname FROM {REACHABLEPREDS} "
            f"  WHERE frompredname IN ({placeholders}))",
            list(predicates) * 2,
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
            placeholders = ", ".join("?" for __ in frontier)
            rows = self.database.execute(
                f"SELECT ruletext FROM {RULESOURCE} "
                f"WHERE headpredname IN ({placeholders})",
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
        wanted = sorted(set(predicates))
        if not wanted or not self.compiled_storage:
            return set()
        placeholders = ", ".join("?" for __ in wanted)
        rows = self.database.execute(
            f"SELECT DISTINCT topredname FROM {REACHABLEPREDS} "
            f"WHERE frompredname IN ({placeholders})",
            wanted,
        )
        return {name for (name,) in rows}

    # -- intensional data dictionary -----------------------------------------

    def derived_types_of(
        self, predicates: Iterable[str]
    ) -> dict[str, tuple[str, ...]]:
        """Column types of stored derived predicates (the ``t_readdict`` read)."""
        wanted = sorted(set(predicates))
        if not wanted:
            return {}
        placeholders = ", ".join("?" for __ in wanted)
        rows = self.database.execute(
            f"SELECT p.predname, c.colnumber, c.coltype "
            f"FROM {IPREDICATES} AS p, {ICOLUMNS} AS c "
            f"WHERE p.predname = c.predname AND p.predname IN ({placeholders}) "
            f"ORDER BY p.predname, c.colnumber",
            wanted,
        )
        out: dict[str, list[str]] = {}
        for predicate, __, coltype in rows:
            out.setdefault(predicate, []).append(coltype)
        return {p: tuple(ts) for p, ts in out.items()}

    def has_predicate(self, predicate: str) -> bool:
        """Whether the intensional dictionary knows ``predicate``."""
        rows = self.database.execute(
            f"SELECT 1 FROM {IPREDICATES} WHERE predname = ?", (predicate,)
        )
        return bool(rows)

    def register_predicate(self, predicate: str, types: Sequence[str]) -> None:
        """Add a derived predicate to the intensional dictionary.

        Raises:
            UpdateError: on a type conflict with an existing registration.
        """
        existing = self.derived_types_of([predicate]).get(predicate)
        if existing is not None:
            if existing != tuple(types):
                raise UpdateError(
                    f"stored predicate {predicate!r} has types {existing}, "
                    f"update would change them to {tuple(types)}"
                )
            return
        self.database.execute(
            f"INSERT INTO {IPREDICATES} VALUES (?, ?)", (predicate, len(types))
        )
        self.database.executemany(
            f"INSERT INTO {ICOLUMNS} VALUES (?, ?, ?)",
            [(predicate, i, t) for i, t in enumerate(types)],
        )

    # -- rule storage ----------------------------------------------------------

    def stored_rule_texts(self) -> set[str]:
        """Canonical texts of all stored rules."""
        rows = self.database.execute(f"SELECT ruletext FROM {RULESOURCE}")
        return {text for (text,) in rows}

    def rule_count(self) -> int:
        """Total number of stored rules (the paper's R_s)."""
        rows = self.database.execute(f"SELECT COUNT(*) FROM {RULESOURCE}")
        return int(rows[0][0])

    def predicate_count(self) -> int:
        """Total number of stored derived predicates (the paper's P_s)."""
        rows = self.database.execute(f"SELECT COUNT(*) FROM {IPREDICATES}")
        return int(rows[0][0])

    def store_rules(self, clauses: Iterable[Clause]) -> int:
        """Append rules in source form; returns how many were new."""
        new = 0
        for clause in clauses:
            text = str(clause)
            rows = self.database.execute(
                f"SELECT 1 FROM {RULESOURCE} WHERE ruletext = ?", (text,)
            )
            if rows:
                continue
            self.database.execute(
                f"INSERT INTO {RULESOURCE} (headpredname, ruletext) VALUES (?, ?)",
                (clause.head_predicate, text),
            )
            new += 1
        return new

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

        Implements the incremental computation of section 4.3: per new edge
        ``(u, v)``, everything that reaches ``u`` now also reaches ``v`` and
        everything ``v`` reaches — all discovered with indexed point queries,
        never touching the unaffected part of the closure.

        Returns:
            Number of closure pairs inserted.
        """
        inserted = 0
        for source, target in edges:
            rows = self.database.execute(
                f"SELECT 1 FROM {REACHABLEPREDS} "
                "WHERE frompredname = ? AND topredname = ?",
                (source, target),
            )
            if rows:
                continue
            reaches_source = {
                name
                for (name,) in self.database.execute(
                    f"SELECT frompredname FROM {REACHABLEPREDS} "
                    "WHERE topredname = ?",
                    (source,),
                )
            }
            reaches_source.add(source)
            reached_from_target = {
                name
                for (name,) in self.database.execute(
                    f"SELECT topredname FROM {REACHABLEPREDS} "
                    "WHERE frompredname = ?",
                    (target,),
                )
            }
            reached_from_target.add(target)
            before = self.database.row_count(REACHABLEPREDS)
            self.database.executemany(
                f"INSERT OR IGNORE INTO {REACHABLEPREDS} VALUES (?, ?)",
                [
                    (left, right)
                    for left in sorted(reaches_source)
                    for right in sorted(reached_from_target)
                ],
            )
            inserted += self.database.row_count(REACHABLEPREDS) - before
        return inserted

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
