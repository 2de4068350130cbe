"""Relation schemas for the testbed's DBMS layer, and the D/KB file format.

Every relation the testbed materialises — base relations, derived-predicate
results, magic predicates, temporaries — uses positional column names
``c0 .. c{n-1}``; the logical column names live in the data dictionaries,
mirroring how the paper's testbed keeps schema information in catalog
relations rather than in the storage layer.  Those catalog relations and
their indexes are declared once, at the end of this module, and
:func:`open_dkb` is the only code that creates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - engine imports this module
    from .engine import Database

_VALID_TYPES = frozenset(("TEXT", "INTEGER"))


def column_name(index: int) -> str:
    """Positional column name used by every testbed relation."""
    return f"c{index}"


def column_names(arity: int) -> tuple[str, ...]:
    """All positional column names of a relation with ``arity`` columns."""
    return tuple(column_name(i) for i in range(arity))


@dataclass(frozen=True)
class RelationSchema:
    """The physical schema of one stored relation."""

    name: str
    types: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("relation name must be non-empty")
        if not isinstance(self.types, tuple):
            object.__setattr__(self, "types", tuple(self.types))
        bad = [t for t in self.types if t not in _VALID_TYPES]
        if bad:
            raise ValueError(f"unsupported column types {bad} for {self.name!r}")

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self.types)

    @property
    def columns(self) -> tuple[str, ...]:
        """Positional column names."""
        return column_names(self.arity)

    def create_table_sql(self, temporary: bool = False, name: str | None = None) -> str:
        """DDL creating this relation (optionally under another ``name``)."""
        target = name or self.name
        keyword = "CREATE TEMPORARY TABLE" if temporary else "CREATE TABLE"
        body = ", ".join(
            f"{column} {ctype}" for column, ctype in zip(self.columns, self.types)
        )
        return f"{keyword} {quote_identifier(target)} ({body})"

    def insert_sql(self, name: str | None = None) -> str:
        """Parameterised INSERT for this relation."""
        target = name or self.name
        placeholders = ", ".join("?" for __ in self.types)
        return f"INSERT INTO {quote_identifier(target)} VALUES ({placeholders})"

    def renamed(self, name: str) -> "RelationSchema":
        """The same schema under a different relation name."""
        return RelationSchema(name, self.types)


def quote_identifier(name: str) -> str:
    """Quote an SQL identifier, doubling embedded quotes."""
    escaped = name.replace('"', '""')
    return f'"{escaped}"'


def schema_for(name: str, types: Iterable[str]) -> RelationSchema:
    """Convenience constructor accepting any iterable of types."""
    return RelationSchema(name, tuple(types))


def validate_row(schema: RelationSchema, row: Sequence) -> None:
    """Check a row's shape and value types against ``schema``.

    Raises:
        ValueError: on arity or type mismatch.
    """
    if len(row) != schema.arity:
        raise ValueError(
            f"row {row!r} has {len(row)} values but {schema.name!r} has "
            f"{schema.arity} columns"
        )
    for value, ctype in zip(row, schema.types):
        if ctype == "INTEGER" and not isinstance(value, int):
            raise ValueError(f"value {value!r} is not INTEGER in {schema.name!r}")
        if ctype == "TEXT" and not isinstance(value, str):
            raise ValueError(f"value {value!r} is not TEXT in {schema.name!r}")


# -- the D/KB file format ------------------------------------------------------

EPREDICATES = "epredicates"
ECOLUMNS = "ecolumns"
IPREDICATES = "ipredicates"
ICOLUMNS = "icolumns"
RULESOURCE = "rulesource"
REACHABLEPREDS = "reachablepreds"
MVIEWS = "mviews"
MVIEWCOLUMNS = "mviewcolumns"
MVIEWDEPS = "mviewdeps"
DKB_VERSION_TABLE = "dkbversion"

_DICTIONARY_PREDICATES = "predname TEXT PRIMARY KEY, arity INTEGER NOT NULL"
_DICTIONARY_COLUMNS = (
    "predname TEXT NOT NULL, colnumber INTEGER NOT NULL, "
    "coltype TEXT NOT NULL, PRIMARY KEY (predname, colnumber)"
)

#: Every catalog relation of a D/KB, name -> column definitions: the
#: extensional dictionary, the stored D/KB (section 3.2.3: the intensional
#: dictionary, the rule source and its compiled form), the view dictionary
#: and the D/KB version counter.
CATALOG_RELATIONS: dict[str, str] = {
    EPREDICATES: _DICTIONARY_PREDICATES,
    ECOLUMNS: _DICTIONARY_COLUMNS,
    IPREDICATES: _DICTIONARY_PREDICATES,
    ICOLUMNS: _DICTIONARY_COLUMNS,
    RULESOURCE: (
        "ruleid INTEGER PRIMARY KEY AUTOINCREMENT, "
        "headpredname TEXT NOT NULL, ruletext TEXT NOT NULL UNIQUE"
    ),
    REACHABLEPREDS: (
        "frompredname TEXT NOT NULL, topredname TEXT NOT NULL, "
        "PRIMARY KEY (frompredname, topredname)"
    ),
    MVIEWS: (
        "predname TEXT PRIMARY KEY, arity INTEGER NOT NULL, "
        "isview INTEGER NOT NULL, fresh INTEGER NOT NULL, epoch INTEGER NOT NULL"
    ),
    MVIEWCOLUMNS: _DICTIONARY_COLUMNS,
    MVIEWDEPS: (
        "viewpred TEXT NOT NULL, depname TEXT NOT NULL, "
        "depkind TEXT NOT NULL, PRIMARY KEY (viewpred, depname, depkind)"
    ),
    DKB_VERSION_TABLE: (
        "id INTEGER PRIMARY KEY CHECK (id = 1), version INTEGER NOT NULL"
    ),
}

#: Every catalog index, name -> (relation, column).  The paper indexes its
#: dictionary relations so dictionary reads stay insensitive to catalog size
#: (Test 2), and "both rulesource and reachablepreds are indexed" (section
#: 4.1) for relevant-rule extraction.
CATALOG_INDEXES: dict[str, tuple[str, str]] = {
    "idx_ecolumns_pred": (ECOLUMNS, "predname"),
    "idx_rulesource_head": (RULESOURCE, "headpredname"),
    "idx_reachable_from": (REACHABLEPREDS, "frompredname"),
    "idx_reachable_to": (REACHABLEPREDS, "topredname"),
    "idx_icolumns_pred": (ICOLUMNS, "predname"),
    "idx_mviewdeps_dep": (MVIEWDEPS, "depname"),
}


def open_dkb(database: "Database") -> None:
    """Make ``database`` hold every catalog relation and index of a D/KB.

    One statement reads which declared names exist.  A complete D/KB is
    left as it is: no DDL, no write transaction.  Otherwise every relation
    and index is created ``IF NOT EXISTS`` in one transaction, with the
    ``dkbversion`` row at version 0, so a fresh file and one a crash left
    with part of an older catalog both end complete, or unchanged.
    """
    names = [*CATALOG_RELATIONS, *CATALOG_INDEXES]
    if len(database.existing_names(names)) == len(names):
        return
    with database.transaction():
        for name, columns in CATALOG_RELATIONS.items():
            database.execute(f"CREATE TABLE IF NOT EXISTS {name} ({columns})")
        for name, (relation, column) in CATALOG_INDEXES.items():
            database.create_index(name, relation, [column])
        database.execute(
            f"INSERT INTO {DKB_VERSION_TABLE} SELECT 1, 0 "
            f"WHERE NOT EXISTS (SELECT 1 FROM {DKB_VERSION_TABLE})"
        )
