"""The materialization registry: view metadata in the data dictionary.

Materialized views are derived predicates whose tuples are kept in
persistent DBMS relations (named ``mv_<predicate>``) instead of being
recomputed per query.  The registry persists, alongside the intensional
dictionary (``ipredicates``), everything the maintenance engines need to
find and update those relations across sessions:

* ``mviews``       — one row per materialized relation: the view predicates
  the user asked for (``isview = 1``) and the derived *support* predicates
  their rules depend on (``isview = 0``), with a freshness flag and a
  monotonically increasing maintenance epoch;
* ``mviewcolumns`` — positional column types, mirroring ``ecolumns``;
* ``mviewdeps``    — per view, the derived predicates of its support set
  (``depkind = 'derived'``, including the view itself) and the base
  relations it reads (``depkind = 'base'``).

Support relations are shared: two views over the same recursive predicate
use one ``mv_`` table, and dropping a view only drops relations no other
view still needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..dbms.engine import Database
from ..dbms.schema import RelationSchema, quote_identifier
from ..errors import CatalogError

MVIEWS = "mviews"
MVIEWCOLUMNS = "mviewcolumns"
MVIEWDEPS = "mviewdeps"
VIEW_TABLE_PREFIX = "mv_"

#: Whether any view is registered, as one SQL expression: the query path
#: reads it in the same statement as its plan-cache stamp.
VIEWS_EXIST_SQL = f"EXISTS (SELECT 1 FROM {MVIEWS} WHERE isview = 1)"

DEP_DERIVED = "derived"
DEP_BASE = "base"


def view_table_name(predicate: str) -> str:
    """Physical table name holding the materialized tuples of ``predicate``."""
    return f"{VIEW_TABLE_PREFIX}{predicate}"


@dataclass(frozen=True)
class ViewInfo:
    """One registry row, as shown by the REPL's ``:views`` command."""

    predicate: str
    arity: int
    is_view: bool
    fresh: bool
    epoch: int


class MaterializedViewRegistry:
    """Manages the materialized-view dictionary and the ``mv_`` relations."""

    def __init__(self, database: Database):
        self.database = database
        self._ensure_dictionary()

    def _ensure_dictionary(self) -> None:
        if self.database.table_exists(MVIEWS):
            return
        self.database.execute(
            f"CREATE TABLE {MVIEWS} ("
            "predname TEXT PRIMARY KEY, arity INTEGER NOT NULL, "
            "isview INTEGER NOT NULL, fresh INTEGER NOT NULL, "
            "epoch INTEGER NOT NULL)"
        )
        self.database.execute(
            f"CREATE TABLE {MVIEWCOLUMNS} ("
            "predname TEXT NOT NULL, colnumber INTEGER NOT NULL, "
            "coltype TEXT NOT NULL, PRIMARY KEY (predname, colnumber))"
        )
        self.database.execute(
            f"CREATE TABLE {MVIEWDEPS} ("
            "viewpred TEXT NOT NULL, depname TEXT NOT NULL, "
            "depkind TEXT NOT NULL, PRIMARY KEY (viewpred, depname, depkind))"
        )
        self.database.create_index("idx_mviewdeps_dep", MVIEWDEPS, ["depname"])
        self.database.commit()

    # -- registration -------------------------------------------------------

    def register_view(
        self,
        view: str,
        derived_types: Mapping[str, tuple[str, ...]],
        base_deps: Iterable[str],
    ) -> None:
        """Register ``view`` with its derived support set and base reads.

        Creates (or reuses) the ``mv_`` relation of every support predicate.
        Re-registering replaces the dependency rows — how ``refresh`` picks
        up rule-base changes that widened or narrowed the support set.  All
        touched rows start stale; the caller marks them fresh after the
        initial refresh populates the relations.
        """
        if view not in derived_types:
            raise CatalogError(
                f"view {view!r} is missing from its own support set"
            )
        for predicate, types in derived_types.items():
            self._register_relation(
                predicate, tuple(types), is_view=(predicate == view)
            )
        self.database.execute(
            f"DELETE FROM {MVIEWDEPS} WHERE viewpred = ?", (view,)
        )
        rows = [(view, dep, DEP_DERIVED) for dep in sorted(derived_types)]
        rows += [(view, dep, DEP_BASE) for dep in sorted(set(base_deps))]
        self.database.executemany(
            f"INSERT INTO {MVIEWDEPS} VALUES (?, ?, ?)", rows
        )
        self.database.commit()

    def _register_relation(
        self, predicate: str, types: tuple[str, ...], is_view: bool
    ) -> None:
        existing = self.database.execute(
            f"SELECT isview FROM {MVIEWS} WHERE predname = ?", (predicate,)
        )
        if existing and self.types_of(predicate) != types:
            # The rule base changed the predicate's inferred schema; the old
            # tuples are meaningless, so rebuild the relation.
            self.database.drop_relation(view_table_name(predicate))
            self.database.execute(
                f"DELETE FROM {MVIEWCOLUMNS} WHERE predname = ?", (predicate,)
            )
            self.database.execute(
                f"DELETE FROM {MVIEWS} WHERE predname = ?", (predicate,)
            )
            existing = []
        schema = RelationSchema(view_table_name(predicate), types)
        if existing:
            was_view = bool(existing[0][0])
            self.database.execute(
                f"UPDATE {MVIEWS} SET isview = ?, fresh = 0 "
                "WHERE predname = ?",
                (int(was_view or is_view), predicate),
            )
        else:
            if not self.database.table_exists(schema.name):
                self.database.create_relation(schema)
                for position, column in enumerate(schema.columns[1:], start=1):
                    self.database.create_index(
                        f"idx_{schema.name}_{position}", schema.name, [column]
                    )
            self.database.execute(
                f"INSERT INTO {MVIEWS} VALUES (?, ?, ?, 0, 0)",
                (predicate, schema.arity, int(is_view)),
            )
            self.database.executemany(
                f"INSERT INTO {MVIEWCOLUMNS} VALUES (?, ?, ?)",
                [(predicate, i, t) for i, t in enumerate(types)],
            )
        self._ensure_key_index(schema)

    def _ensure_key_index(self, schema: RelationSchema) -> None:
        """Index the relation on all its columns, in column order.

        Every membership test maintenance makes against a view probes this
        index, and its leading column serves what a single-column index on
        ``c0`` would — a relation materialized before the key index existed
        has that redundant index dropped here, on re-registration.
        """
        self.database.create_index(
            f"idx_{schema.name}_key", schema.name, list(schema.columns)
        )
        self.database.execute(
            f"DROP INDEX IF EXISTS {quote_identifier(f'idx_{schema.name}_0')}"
        )

    def unregister_view(self, view: str) -> None:
        """Drop a view, keeping support relations other views still need.

        Raises:
            CatalogError: when ``view`` is not a registered view.
        """
        if not self.is_view(view):
            raise CatalogError(f"{view!r} is not a materialized view")
        support = self.support_of(view)
        self.database.execute(
            f"DELETE FROM {MVIEWDEPS} WHERE viewpred = ?", (view,)
        )
        self.database.execute(
            f"UPDATE {MVIEWS} SET isview = 0 WHERE predname = ?", (view,)
        )
        for predicate in support:
            still_needed = self.database.execute(
                f"SELECT 1 FROM {MVIEWDEPS} WHERE depname = ? "
                f"AND depkind = '{DEP_DERIVED}'",
                (predicate,),
            )
            if still_needed:
                continue
            self.database.drop_relation(view_table_name(predicate))
            self.database.execute(
                f"DELETE FROM {MVIEWS} WHERE predname = ?", (predicate,)
            )
            self.database.execute(
                f"DELETE FROM {MVIEWCOLUMNS} WHERE predname = ?", (predicate,)
            )
        self.database.commit()

    # -- lookups ------------------------------------------------------------

    def has_views(self) -> bool:
        """Whether any view is registered (the ``query()`` fast-path gate)."""
        ((exists,),) = self.database.execute(f"SELECT {VIEWS_EXIST_SQL}")
        return bool(exists)

    def is_view(self, predicate: str) -> bool:
        """Whether ``predicate`` was explicitly materialized as a view."""
        rows = self.database.execute(
            f"SELECT 1 FROM {MVIEWS} WHERE predname = ? AND isview = 1",
            (predicate,),
        )
        return bool(rows)

    def is_registered(self, predicate: str) -> bool:
        """Whether ``predicate`` has a materialized relation (view or support)."""
        rows = self.database.execute(
            f"SELECT 1 FROM {MVIEWS} WHERE predname = ?", (predicate,)
        )
        return bool(rows)

    def is_fresh(self, predicate: str) -> bool:
        """Whether ``predicate``'s materialized relation is current."""
        rows = self.database.execute(
            f"SELECT fresh FROM {MVIEWS} WHERE predname = ?", (predicate,)
        )
        return bool(rows) and bool(rows[0][0])

    def views(self) -> list[ViewInfo]:
        """Registry rows of the explicit views, sorted by predicate."""
        return self._infos("isview = 1")

    def registered(self) -> list[ViewInfo]:
        """Every registry row (views and support relations)."""
        return self._infos("1 = 1")

    def _infos(self, condition: str) -> list[ViewInfo]:
        rows = self.database.execute(
            f"SELECT predname, arity, isview, fresh, epoch FROM {MVIEWS} "
            f"WHERE {condition} ORDER BY predname"
        )
        return [
            ViewInfo(name, arity, bool(isview), bool(fresh), epoch)
            for name, arity, isview, fresh, epoch in rows
        ]

    def types_of(self, predicate: str) -> tuple[str, ...]:
        """Column types of a registered materialized relation."""
        rows = self.database.execute(
            f"SELECT coltype FROM {MVIEWCOLUMNS} WHERE predname = ? "
            "ORDER BY colnumber",
            (predicate,),
        )
        if not rows:
            raise CatalogError(
                f"{predicate!r} has no materialized relation"
            )
        return tuple(t for (t,) in rows)

    def support_of(self, view: str) -> list[str]:
        """Derived support predicates of ``view`` (including itself)."""
        rows = self.database.execute(
            f"SELECT depname FROM {MVIEWDEPS} WHERE viewpred = ? "
            f"AND depkind = '{DEP_DERIVED}' ORDER BY depname",
            (view,),
        )
        return [name for (name,) in rows]

    def base_deps_of(self, view: str) -> list[str]:
        """Base relations ``view``'s rules read."""
        rows = self.database.execute(
            f"SELECT depname FROM {MVIEWDEPS} WHERE viewpred = ? "
            f"AND depkind = '{DEP_BASE}' ORDER BY depname",
            (view,),
        )
        return [name for (name,) in rows]

    def fresh_views_on_base(self, predicate: str) -> list[str]:
        """Fresh views whose rules read base relation ``predicate``.

        These are the views EDB updates must maintain; stale views are
        skipped (they will be recomputed wholesale on ``refresh``).
        """
        rows = self.database.execute(
            f"SELECT DISTINCT d.viewpred FROM {MVIEWDEPS} AS d, {MVIEWS} AS v "
            f"WHERE d.depname = ? AND d.depkind = '{DEP_BASE}' "
            "AND v.predname = d.viewpred AND v.isview = 1 AND v.fresh = 1 "
            "ORDER BY d.viewpred",
            (predicate,),
        )
        return [name for (name,) in rows]

    def views_supported_by(self, predicates: Iterable[str]) -> list[str]:
        """Views whose derived support set intersects ``predicates``.

        Used to invalidate views when rules defining those predicates are
        added or removed.
        """
        rows = self.database.execute_in(
            f"SELECT DISTINCT d.viewpred FROM {MVIEWDEPS} AS d, {MVIEWS} AS v "
            f"WHERE d.depkind = '{DEP_DERIVED}' "
            f"AND d.depname IN ({{in}}) "
            "AND v.predname = d.viewpred AND v.isview = 1 "
            "ORDER BY d.viewpred",
            sorted(set(predicates)),
        )
        return sorted({name for (name,) in rows})

    def tuple_count(self, predicate: str) -> int:
        """Current size of a registered materialized relation."""
        self.types_of(predicate)  # raises CatalogError when missing
        return self.database.row_count(view_table_name(predicate))

    # -- freshness and epochs ------------------------------------------------

    def mark_group_fresh(self, view: str) -> None:
        """Mark ``view`` and its whole support set fresh."""
        self._set_group_fresh(view, 1)

    def mark_stale(self, views: Iterable[str]) -> None:
        """Mark each view and its support set stale."""
        for view in set(views):
            self._set_group_fresh(view, 0)

    def _set_group_fresh(self, view: str, fresh: int) -> None:
        self.database.execute(
            f"UPDATE {MVIEWS} SET fresh = ? WHERE predname IN "
            f"(SELECT depname FROM {MVIEWDEPS} WHERE viewpred = ? "
            f"AND depkind = '{DEP_DERIVED}')",
            (fresh, view),
        )
        self.database.commit()

    def bump_epoch(self, views: Sequence[str]) -> None:
        """Advance the maintenance epoch of each view's support group."""
        for view in sorted(set(views)):
            self.database.execute(
                f"UPDATE {MVIEWS} SET epoch = epoch + 1 WHERE predname IN "
                f"(SELECT depname FROM {MVIEWDEPS} WHERE viewpred = ? "
                f"AND depkind = '{DEP_DERIVED}')",
                (view,),
            )
        self.database.commit()
