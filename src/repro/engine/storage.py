"""Row storage for one table, with constraints and primary-key access.

Rows are stored as tuples in insertion order. A primary-key hash index
is maintained eagerly for uniqueness and point lookups. A table whose
primary key is one INTEGER/BIGINT column also answers key ranges from a
sorted ``(key, position)`` list, built on the first range read and
dropped on every mutation (rebuild-on-demand keeps the mutation path
simple and is the right trade for the read-mostly workloads the paper
evaluates). ``CREATE INDEX`` is a catalog-only declaration.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.common.errors import (
    ColumnNotFoundError,
    DuplicateObjectError,
    IntegrityError,
)
from repro.common.types import SQLType, TypeKind, coerce_value


@dataclass(frozen=True)
class Column:
    """Schema of one stored column."""

    name: str
    type: SQLType
    not_null: bool = False
    primary_key: bool = False
    default: object = None
    has_default: bool = False


def estimate_value_bytes(value: object) -> int:
    """Approximate wire/storage footprint of one value.

    Used for the kB-based ETL benchmarks (Figs 4-5) and network payload
    sizing; mirrors a simple text-protocol encoding.
    """
    if value is None:
        return 4  # 'NULL'
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return max(1, len(str(value)))
    if isinstance(value, float):
        return len(repr(value))
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    return len(str(value))


#: the Python type :func:`coerce_value` returns unchanged for each
#: numeric kind, so a value already of that exact type skips the call
_NATIVE_TYPES = {
    TypeKind.INTEGER: int,
    TypeKind.BIGINT: int,
    TypeKind.FLOAT: float,
    TypeKind.DOUBLE: float,
    TypeKind.DECIMAL: float,
}

#: value types whose ``str`` length is exactly their footprint
_TEXT_SIZED_TYPES = frozenset({type(None), int, float, str})


def estimate_row_bytes(row: tuple) -> int:
    """Footprint of a full row including per-value separators.

    A row of only ``None``, ``int``, ``float`` and ``str`` values (no
    ``bool``, ``bytes`` or subclass) is sized from one joined string:
    ``str(None)`` is the 4 characters of 'NULL', ``str`` of a float is
    its ``repr`` and an int has at least one digit, so each value's
    text length is exactly :func:`estimate_value_bytes`.

    The estimate is additive: a row costs its values' sizes plus
    ``len(row)``, on either path. A whole result is therefore sized in
    one call over its flattened values,
    ``estimate_row_bytes(tuple(chain.from_iterable(rows)))``, which
    equals ``sum(estimate_row_bytes(r) for r in rows)`` exactly.
    """
    if _TEXT_SIZED_TYPES.issuperset(map(type, row)):
        return len("".join(map(str, row))) + len(row)
    return sum(estimate_value_bytes(v) for v in row) + len(row)


class TableStorage:
    """Storage and constraint enforcement for a single table."""

    def __init__(self, name: str, columns: list[Column]):
        if not columns:
            raise IntegrityError(f"table {name!r} must have at least one column")
        seen = set()
        for col in columns:
            key = col.name.lower()
            if key in seen:
                raise DuplicateObjectError(f"duplicate column {col.name!r} in {name!r}")
            seen.add(key)
        self.name = name
        self.columns = list(columns)
        self.rows: list[tuple] = []
        self._col_index = {c.name.lower(): i for i, c in enumerate(self.columns)}
        self._native_types = [_NATIVE_TYPES.get(c.type.kind) for c in self.columns]
        pk_cols = [i for i, c in enumerate(self.columns) if c.primary_key]
        self._pk_positions: tuple[int, ...] = tuple(pk_cols)
        self._pk_index: dict[tuple, int] | None = {} if pk_cols else None
        # (sorted keys, their row positions or None when that is 0..n-1),
        # built by the first pk_range call and dropped on every mutation
        self._pk_sorted: tuple[list[int] | None, list[int] | None] | None = None

    # Introspection -------------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def byte_size(self) -> int:
        """Approximate data footprint in bytes, summed over the rows on
        each read (no mutation keeps a running count)."""
        return sum(map(estimate_row_bytes, self.rows))

    def column_position(self, name: str) -> int:
        idx = self._col_index.get(name.lower())
        if idx is None:
            raise ColumnNotFoundError(name, self.name)
        return idx

    def has_column(self, name: str) -> bool:
        return name.lower() in self._col_index

    # Mutation ------------------------------------------------------------------

    def _check_and_coerce(self, values: list, partial_columns: list[str] | None) -> tuple:
        """Coerce ``values`` onto full column order, applying defaults."""
        if partial_columns is None:
            if len(values) != len(self.columns):
                raise IntegrityError(
                    f"table {self.name!r} expects {len(self.columns)} values, got {len(values)}"
                )
            ordered = list(values)
        else:
            if len(values) != len(partial_columns):
                raise IntegrityError(
                    f"INSERT column list has {len(partial_columns)} names but "
                    f"{len(values)} values"
                )
            ordered = []
            provided = {name.lower(): v for name, v in zip(partial_columns, values)}
            for col in self.columns:
                key = col.name.lower()
                if key in provided:
                    ordered.append(provided.pop(key))
                elif col.has_default:
                    ordered.append(col.default)
                else:
                    ordered.append(None)
            if provided:
                raise ColumnNotFoundError(next(iter(provided)), self.name)
        out = []
        for col, native, value in zip(self.columns, self._native_types, ordered):
            if value is None or type(value) is native:
                coerced = value
            else:
                coerced = coerce_value(value, col.type)
            if coerced is None and col.not_null:
                raise IntegrityError(
                    f"NULL violates NOT NULL on {self.name}.{col.name}"
                )
            out.append(coerced)
        return tuple(out)

    def insert(self, values: list, columns: list[str] | None = None) -> tuple:
        """Insert one row; returns the stored (coerced) tuple."""
        row = self._check_and_coerce(values, columns)
        if self._pk_index is not None:
            key = tuple(row[i] for i in self._pk_positions)
            if key in self._pk_index:
                raise IntegrityError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
            self._pk_index[key] = len(self.rows)
        self.rows.append(row)
        self._pk_sorted = None
        return row

    def insert_many(self, rows: list[list], columns: list[str] | None = None) -> int:
        return self.append_rows(rows, columns)

    def append_rows(self, rows: list[list], columns: list[str] | None = None) -> int:
        """Bulk insert: validate every row, then commit the batch at once.

        All-or-nothing — constraint violations (including duplicate keys
        *within* the batch) raise before any row lands, and the sorted
        primary-key list is dropped once instead of per row. This is what
        the scratch-engine merge and the warehouse loader use; per-row
        :meth:`insert` keeps modelling the prototype's statement-at-a-time
        path.
        """
        if not rows:
            return 0
        staged: list[tuple] = []
        staged_keys: dict[tuple, None] = {}
        for values in rows:
            row = self._check_and_coerce(values, columns)
            if self._pk_index is not None:
                key = tuple(row[i] for i in self._pk_positions)
                if key in self._pk_index or key in staged_keys:
                    raise IntegrityError(
                        f"duplicate primary key {key!r} in table {self.name!r}"
                    )
                staged_keys[key] = None
            staged.append(row)
        base = len(self.rows)
        if self._pk_index is not None:
            for offset, key in enumerate(staged_keys):
                self._pk_index[key] = base + offset
        self.rows.extend(staged)
        self._pk_sorted = None
        return len(staged)

    def delete_where(self, keep_predicate) -> int:
        """Delete rows for which ``keep_predicate(row)`` is False; returns count."""
        kept = [r for r in self.rows if keep_predicate(r)]
        deleted = len(self.rows) - len(kept)
        if deleted:
            self.rows = kept
            self._rebuild_after_mutation()
        return deleted

    def replace_rows(self, rows: list[tuple]) -> None:
        """Wholesale row replacement (used by UPDATE)."""
        self.rows = list(rows)
        self._rebuild_after_mutation()

    def _rebuild_after_mutation(self) -> None:
        self._pk_sorted = None
        if self._pk_index is not None:
            self._pk_index = {}
            for pos, row in enumerate(self.rows):
                key = tuple(row[i] for i in self._pk_positions)
                if key in self._pk_index:
                    raise IntegrityError(
                        f"duplicate primary key {key!r} in table {self.name!r}"
                    )
                self._pk_index[key] = pos

    # Schema evolution ----------------------------------------------------------

    def add_column(self, column: Column) -> None:
        if self.has_column(column.name):
            raise DuplicateObjectError(
                f"column {column.name!r} already exists in {self.name!r}"
            )
        fill = column.default if column.has_default else None
        if fill is None and column.not_null and self.rows:
            raise IntegrityError(
                f"cannot add NOT NULL column {column.name!r} without default to "
                f"non-empty table {self.name!r}"
            )
        self.columns.append(column)
        self._native_types.append(_NATIVE_TYPES.get(column.type.kind))
        self.rows = [row + (fill,) for row in self.rows]
        self._col_index[column.name.lower()] = len(self.columns) - 1
        self._rebuild_after_mutation()

    def drop_column(self, name: str) -> None:
        pos = self.column_position(name)
        if self.columns[pos].primary_key:
            raise IntegrityError(f"cannot drop primary-key column {name!r}")
        del self.columns[pos]
        del self._native_types[pos]
        self.rows = [row[:pos] + row[pos + 1 :] for row in self.rows]
        self._col_index = {c.name.lower(): i for i, c in enumerate(self.columns)}
        self._pk_positions = tuple(
            i for i, c in enumerate(self.columns) if c.primary_key
        )
        self._rebuild_after_mutation()

    # Primary-key access ---------------------------------------------------------

    def range_key(self) -> int | None:
        """Position of the primary key when it is one INTEGER/BIGINT
        column, the only shape :meth:`pk_range` answers; else None."""
        if len(self._pk_positions) != 1:
            return None
        (pos,) = self._pk_positions
        if self.columns[pos].type.kind in (TypeKind.INTEGER, TypeKind.BIGINT):
            return pos
        return None

    def pk_range(self, lo: float, hi: float) -> list[tuple] | None:
        """Rows whose primary key lies in ``[lo, hi]``, in insertion order.

        Bisects the sorted key list; when the keys ascend in insertion
        order (the usual load) the answer is one slice of ``rows``.
        None means the range cannot be answered, because a non-integer
        key reached the table through :meth:`replace_rows`; the caller
        scans instead. Only valid when :meth:`range_key` is not None.
        """
        if self._pk_sorted is None:
            self._pk_sorted = self._sort_pk()
        keys, positions = self._pk_sorted
        if keys is None:
            return None
        start, stop = bisect_left(keys, lo), bisect_right(keys, hi)
        if start >= stop:
            return []
        if positions is None:
            return self.rows[start:stop]
        return [self.rows[p] for p in sorted(positions[start:stop])]

    def _sort_pk(self) -> tuple[list[int] | None, list[int] | None]:
        (pos,) = self._pk_positions
        values = [row[pos] for row in self.rows]
        if any(type(v) is not int for v in values if v is not None):
            return None, None
        order = sorted(
            (p for p, v in enumerate(values) if v is not None), key=values.__getitem__
        )
        keys = [values[p] for p in order]
        return keys, (None if order == list(range(len(values))) else order)

    def lookup_pk(self, key: tuple) -> tuple | None:
        """Primary-key point lookup; None when the table has no PK or misses."""
        if self._pk_index is None:
            return None
        pos = self._pk_index.get(key)
        return None if pos is None else self.rows[pos]
