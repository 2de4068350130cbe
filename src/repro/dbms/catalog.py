"""The extensional data dictionary: base relations and their column types.

The paper's testbed stores facts as ordinary database relations and keeps
their schemas in catalog relations.  :class:`ExtensionalCatalog` manages the
fact tables (named ``e_<predicate>``) and the dictionary tables
``epredicates``/``ecolumns``, which the Knowledge Manager reads during type
checking.  The dictionary tables are declared in :mod:`repro.dbms.schema`
and created by :func:`~repro.dbms.schema.open_dkb`.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from ..errors import CatalogError
from .engine import Database
from .schema import ECOLUMNS, EPREDICATES, RelationSchema, quote_identifier

FACT_TABLE_PREFIX = "e_"

#: Scalar subqueries whose values move when *any* handle on the database
#: registers or drops a base relation — what a holder of compiled plans
#: re-reads (one statement, no scan beyond the primary key) to learn that
#: the dictionary it type-checked against has changed.  A relation dropped
#: and re-created between two reads can leave both values as they were;
#: :attr:`ExtensionalCatalog.generation` covers that for this handle.
DICTIONARY_STAMP_SQL = (
    f"(SELECT COUNT(*) FROM {EPREDICATES})",
    f"(SELECT MAX(rowid) FROM {EPREDICATES})",
)


def fact_table_name(predicate: str) -> str:
    """Physical table name holding the facts of ``predicate``."""
    return f"{FACT_TABLE_PREFIX}{predicate}"


class ExtensionalCatalog:
    """Manages base relations and the extensional data dictionary."""

    def __init__(self, database: Database):
        self.database = database
        #: Bumped by every create/drop made through this handle.
        self.generation = 0
        # The dictionary stamp ``has_relation`` last confirmed relations
        # under, and those relations.
        self._stamp: Hashable = None
        self._confirmed: set[str] = set()

    def create_relation(
        self, predicate: str, types: Sequence[str], indexed: bool = True
    ) -> RelationSchema:
        """Create a base relation and register it in the dictionary.

        Args:
            predicate: logical predicate name.
            types: SQL column types.
            indexed: create per-column indexes (on by default; the paper's
                join-heavy workloads depend on indexed base relations).

        Raises:
            CatalogError: when the predicate already exists.
        """
        if self.has_relation(predicate):
            raise CatalogError(f"base relation {predicate!r} already exists")
        schema = RelationSchema(fact_table_name(predicate), tuple(types))
        self.database.create_relation(schema)
        self.database.execute(
            f"INSERT INTO {EPREDICATES} VALUES (?, ?)", (predicate, schema.arity)
        )
        self.database.executemany(
            f"INSERT INTO {ECOLUMNS} VALUES (?, ?, ?)",
            [(predicate, i, t) for i, t in enumerate(schema.types)],
        )
        if indexed:
            for position, column in enumerate(schema.columns):
                self.database.create_index(
                    f"idx_{schema.name}_{position}", schema.name, [column]
                )
        self.database.commit()
        self.generation += 1
        return schema

    def drop_relation(self, predicate: str) -> None:
        """Drop a base relation and de-register it.

        Raises:
            CatalogError: when the predicate does not exist.
        """
        if not self.has_relation(predicate):
            raise CatalogError(f"base relation {predicate!r} does not exist")
        self.database.drop_relation(fact_table_name(predicate))
        self.database.execute(
            f"DELETE FROM {EPREDICATES} WHERE predname = ?", (predicate,)
        )
        self.database.execute(
            f"DELETE FROM {ECOLUMNS} WHERE predname = ?", (predicate,)
        )
        self.database.commit()
        self.generation += 1

    def has_relation(self, predicate: str, stamp: Hashable = None) -> bool:
        """Whether ``predicate`` is a registered base relation.

        ``stamp`` is a dictionary state the caller has just read (the
        :data:`DICTIONARY_STAMP_SQL` values with :attr:`generation`).  A
        relation found under a stamp is not probed again while the caller
        passes the same one; any create or drop, through any handle, moves
        the stamp.  Without one, the dictionary is always probed.
        """
        if stamp is not None and stamp == self._stamp and predicate in self._confirmed:
            return True
        rows = self.database.execute(
            f"SELECT 1 FROM {EPREDICATES} WHERE predname = ?", (predicate,)
        )
        if rows and stamp is not None:
            if stamp != self._stamp:
                self._stamp, self._confirmed = stamp, set()
            self._confirmed.add(predicate)
        return bool(rows)

    def relation_names(self) -> list[str]:
        """All registered base predicates, sorted."""
        rows = self.database.execute(
            f"SELECT predname FROM {EPREDICATES} ORDER BY predname"
        )
        return [name for (name,) in rows]

    def schema_of(self, predicate: str) -> RelationSchema:
        """Schema of a base relation.

        Raises:
            CatalogError: when the predicate does not exist.
        """
        rows = self.database.execute(
            f"SELECT coltype FROM {ECOLUMNS} WHERE predname = ? ORDER BY colnumber",
            (predicate,),
        )
        if not rows:
            raise CatalogError(f"base relation {predicate!r} does not exist")
        return RelationSchema(fact_table_name(predicate), tuple(t for (t,) in rows))

    def types_of(self, predicates: Iterable[str]) -> dict[str, tuple[str, ...]]:
        """Column types of several base relations at once.

        This is the dictionary read the paper times as ``t_readdict`` — a
        single join-style query over the (indexed) dictionary relations.
        """
        rows = self.database.execute_in(
            f"SELECT p.predname, c.colnumber, c.coltype "
            f"FROM {EPREDICATES} AS p, {ECOLUMNS} AS c "
            f"WHERE p.predname = c.predname AND p.predname IN ({{in}}) "
            f"ORDER BY p.predname, c.colnumber",
            sorted(set(predicates)),
        )
        out: dict[str, list[str]] = {}
        for predicate, __, coltype in rows:
            out.setdefault(predicate, []).append(coltype)
        return {p: tuple(ts) for p, ts in out.items()}

    def insert_facts(self, predicate: str, rows: Iterable[Sequence]) -> int:
        """Bulk-load fact tuples into a base relation."""
        schema = self.schema_of(predicate)
        count = self.database.insert_rows(schema, rows)
        self.database.commit()
        return count

    def delete_facts(self, predicate: str) -> None:
        """Remove all tuples from a base relation, keeping its schema."""
        schema = self.schema_of(predicate)
        self.database.execute(f"DELETE FROM {quote_identifier(schema.name)}")
        self.database.commit()

    def delete_rows(self, predicate: str, rows: Iterable[Sequence]) -> int:
        """Delete specific fact tuples from a base relation.

        Every stored copy of each listed tuple is removed (base relations
        keep duplicates on insert).  Returns the number of rows deleted.
        """
        schema = self.schema_of(predicate)
        condition = " AND ".join(f"{c} = ?" for c in schema.columns)
        count = self.database.executemany(
            f"DELETE FROM {quote_identifier(schema.name)} WHERE {condition}",
            [tuple(row) for row in rows],
        )
        self.database.commit()
        return count

    def fact_count(self, predicate: str) -> int:
        """Number of tuples stored for ``predicate``."""
        return self.database.row_count(fact_table_name(predicate))

    def facts_of(self, predicate: str) -> list[tuple]:
        """All tuples of a base relation."""
        self.schema_of(predicate)  # raises CatalogError when missing
        return self.database.fetch_all(fact_table_name(predicate))
