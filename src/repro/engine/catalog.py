"""Schema catalog for one database: tables, views, indexes.

The catalog is the source of truth the XSpec generator serializes and
the schema-change tracker watches. Names are case-insensitive, matching
the behaviour of all four target vendors for unquoted identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import DuplicateObjectError, TableNotFoundError
from repro.engine.storage import Column, TableStorage
from repro.sql import ast


@dataclass(frozen=True)
class ViewDef:
    """A named stored SELECT (the warehouse's read-only analysis views)."""

    name: str
    select: ast.Select
    sql: str


class Catalog:
    """All persistent objects of one database."""

    def __init__(self, database_name: str):
        self.database_name = database_name
        self._tables: dict[str, TableStorage] = {}
        self._views: dict[str, ViewDef] = {}
        self._index_defs: dict[str, ast.CreateIndex] = {}

    # Tables ---------------------------------------------------------------------

    def create_table(self, name: str, columns: list[Column], if_not_exists: bool = False) -> TableStorage | None:
        """Create a table; None (not an error) under IF NOT EXISTS."""
        key = name.lower()
        if key in self._tables or key in self._views:
            if if_not_exists:
                return None
            raise DuplicateObjectError(
                f"object {name!r} already exists in {self.database_name!r}"
            )
        table = TableStorage(name, columns)
        self._tables[key] = table
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> bool:
        """Drop a table (and its index definitions); returns whether it existed."""
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return False
            raise TableNotFoundError(name, self.database_name)
        del self._tables[key]
        self._index_defs = {
            n: d for n, d in self._index_defs.items() if d.table.lower() != key
        }
        return True

    def get_table(self, name: str) -> TableStorage:
        """Storage of a table; raises TableNotFoundError on miss."""
        table = self._tables.get(name.lower())
        if table is None:
            raise TableNotFoundError(name, self.database_name)
        return table

    def has_table(self, name: str) -> bool:
        """True when a base table of this name exists."""
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        """Sorted names of every base table."""
        return sorted(t.name for t in self._tables.values())

    def rename_table(self, old: str, new: str) -> None:
        """Rename a table, keeping its storage and rows."""
        table = self.get_table(old)
        if new.lower() in self._tables or new.lower() in self._views:
            raise DuplicateObjectError(f"object {new!r} already exists")
        del self._tables[old.lower()]
        table.name = new
        self._tables[new.lower()] = table

    # Views ------------------------------------------------------------------------

    def create_view(self, view: ViewDef) -> None:
        """Register a stored SELECT under a new name."""
        key = view.name.lower()
        if key in self._views or key in self._tables:
            raise DuplicateObjectError(f"object {view.name!r} already exists")
        self._views[key] = view

    def drop_view(self, name: str, if_exists: bool = False) -> bool:
        """Drop a view; returns whether it existed."""
        key = name.lower()
        if key not in self._views:
            if if_exists:
                return False
            raise TableNotFoundError(name, self.database_name)
        del self._views[key]
        return True

    def get_view(self, name: str) -> ViewDef | None:
        """The view definition, or None."""
        return self._views.get(name.lower())

    def has_view(self, name: str) -> bool:
        """True when a view of this name exists."""
        return name.lower() in self._views

    def view_names(self) -> list[str]:
        """Sorted names of every view."""
        return sorted(v.name for v in self._views.values())

    # Indexes ------------------------------------------------------------------------

    def create_index(self, stmt: ast.CreateIndex) -> None:
        """Validate and register an index declaration (catalog-only: the
        executor's one access path is the primary-key range scan)."""
        key = stmt.name.lower()
        if key in self._index_defs:
            raise DuplicateObjectError(f"index {stmt.name!r} already exists")
        table = self.get_table(stmt.table)  # validates table + columns
        for col in stmt.columns:
            table.column_position(col)
        self._index_defs[key] = stmt

    def index_names(self) -> list[str]:
        """Sorted names of every index."""
        return sorted(d.name for d in self._index_defs.values())
