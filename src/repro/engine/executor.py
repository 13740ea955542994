"""SELECT execution against a table resolver.

The executor is deliberately a *materializing* vector executor: each
stage consumes and produces lists of row tuples. At the scales the paper
evaluates (~80 k rows across 6 databases) this is faster in CPython than
a pull-based iterator tree, and it keeps the stage boundaries — scan,
join, filter, aggregate, sort, project — easy to cost-model and test.

Join strategy: conjunctive equi-join predicates become hash joins
(build on the right input, probe from the left); remaining conjuncts
are applied as residual filters. Everything else falls back to a
nested-loop join.

Access path: a single-table SELECT whose WHERE bounds the table's
INTEGER/BIGINT primary key filters only the rows of a primary-key range
scan (:func:`pk_range_path`); every other scan reads the whole table.
``ExecStats.rows_examined`` stays the vendor cost model's count either
way: the table's cardinality at the scan and again at the filter.

Column kernels: the hot loops run one column at a time through C-level
builtins rather than a Python call per row per value.

- A WHERE that is a conjunction of ``column op constant`` tests
  (:func:`column_tests`) filters with one ``operator`` map per test
  (:func:`filter_rows`). It answers only when every tested column holds
  nothing but ``int``/``float``/``bool`` values (numeric constant) or
  ``str`` values (string constant) on every input row, so no row could
  evaluate to NULL or raise; otherwise the compiled row predicate runs
  over the whole WHERE, exactly as before.
- Hash joins key their build and probe sides with ``itemgetter`` over
  the equi-join positions (:func:`equi_positions`): a scalar for one key,
  a tuple for several, which hash and compare as the old 1-tuples did.
- GROUP BY over column references and aggregates over a column read
  their values with ``itemgetter``, not a compiled closure.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import itemgetter
from typing import Callable, Protocol

from repro.common.errors import (
    ColumnNotFoundError,
    PlanningError,
    SQLTypeError,
)
from repro.common.types import SQLType, infer_literal_type
from repro.engine.storage import TableStorage
from repro.sql import ast
from repro.sql.eval import RowSchema, SchemaColumn, compile_expr, truthy


class TableResolver(Protocol):
    """What the executor needs from its host database."""

    def resolve_table(self, name: str) -> tuple[list[SchemaColumn], list[tuple]]:
        """Return (columns, rows) for a base table or view."""
        ...

    def base_table(self, name: str) -> TableStorage | None:
        """The stored table behind ``name``; None for a view."""
        ...


@dataclass
class ExecStats:
    """Work counters the simulated cost model charges for."""

    rows_examined: int = 0
    rows_returned: int = 0
    tables_accessed: list[str] = field(default_factory=list)
    join_strategy: list[str] = field(default_factory=list)


@dataclass
class QueryResult:
    """A fully materialized result set."""

    columns: list[str]
    types: list[SQLType]
    rows: list[tuple]
    stats: ExecStats = field(default_factory=ExecStats)

    @property
    def row_count(self) -> int:
        """Number of result rows."""
        return len(self.rows)

    def column_index(self, name: str) -> int:
        """Index of a result column by (case-insensitive) name."""
        lowered = name.lower()
        for i, c in enumerate(self.columns):
            if c.lower() == lowered:
                return i
        raise ColumnNotFoundError(name)

    def column_values(self, name: str) -> list:
        """All values of one column, in row order."""
        idx = self.column_index(name)
        return [row[idx] for row in self.rows]

    def to_dicts(self) -> list[dict]:
        """Rows as dicts keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]


_SUBQUERY_NODES = (ast.ScalarSubquery, ast.InSubquery, ast.Exists)
#: ``literal op key`` means ``key flipped[op] literal``
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def split_conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


_CONSTANT_TYPES = frozenset({int, float, str})


def _constant(expr: ast.Expr, params: tuple) -> int | float | str | None:
    """The int, float or str a literal or bound parameter stands for, else
    None (``bool``, NULL, subclasses and anything else do not qualify)."""
    if isinstance(expr, ast.Literal):
        value = expr.value
    elif isinstance(expr, ast.Param) and expr.index < len(params):
        value = params[expr.index]
    else:
        return None
    return value if type(value) in _CONSTANT_TYPES else None


def _numeric_bound(expr: ast.Expr, params: tuple) -> int | float | None:
    """The finite number a literal or bound parameter stands for, else None."""
    value = _constant(expr, params)
    if value is None or type(value) is str:
        return None
    return value if math.isfinite(value) else None


def pk_range_path(
    select: ast.Select, resolver: TableResolver, schema: RowSchema, params: tuple = ()
) -> tuple[TableStorage, int | float, int | float] | None:
    """The primary-key range scan a SELECT can use: ``(table, lo, hi)``.

    The executor and EXPLAIN both plan through this one function. It
    applies to a WHERE over one base table, with no joins, whose primary
    key is one INTEGER/BIGINT column. The conjuncts comparing that key
    with a finite numeric literal or bound parameter (``<``, ``<=``,
    ``=``, ``>=``, ``>`` in either operand order, or ``BETWEEN``) fold
    into the closed integer interval ``[lo, hi]``; an unbounded side is
    ``-inf``/``inf`` and ``lo > hi`` is an empty range. None means a full
    scan: no usable conjunct, or a subquery in the WHERE, which must run
    (and charge its rows) exactly as it does under a full scan.
    """
    if select.where is None or len(select.from_) != 1 or select.joins:
        return None
    table = resolver.base_table(select.from_[0].name)
    key = None if table is None else table.range_key()
    if key is None or any(isinstance(n, _SUBQUERY_NODES) for n in ast.walk(select.where)):
        return None

    def is_key(expr: ast.Expr) -> bool:
        if not isinstance(expr, ast.ColumnRef):
            return False
        try:
            return schema.resolve(expr) == key
        except ColumnNotFoundError:
            return False

    bounds: list[tuple[str, ast.Expr]] = []
    for conj in split_conjuncts(select.where):
        if isinstance(conj, ast.Between):
            if not conj.negated and is_key(conj.operand):
                bounds += [(">=", conj.low), ("<=", conj.high)]
        elif isinstance(conj, ast.BinaryOp) and conj.op in _FLIPPED:
            if is_key(conj.left):
                bounds.append((conj.op, conj.right))
            elif is_key(conj.right):
                bounds.append((_FLIPPED[conj.op], conj.left))
    lo: int | float = -math.inf
    hi: int | float = math.inf
    narrowed = False
    for op, expr in bounds:
        value = _numeric_bound(expr, params)
        if value is None:
            continue
        narrowed = True
        # keys are integers, so each bound rounds onto the nearest key inside it
        if op in ("<=", "="):
            hi = min(hi, math.floor(value))
        if op in (">=", "="):
            lo = max(lo, math.ceil(value))
        if op == "<":
            hi = min(hi, math.ceil(value) - 1)
        if op == ">":
            lo = max(lo, math.floor(value) + 1)
    return (table, lo, hi) if narrowed else None


#: comparison operators a column test can apply, as C-level functions
_COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_MIRRORED = {**_FLIPPED, "<>": "<>"}


def column_tests(
    where: ast.Expr, schema: RowSchema, params: tuple = ()
) -> list[tuple[int, str, int | float | str]] | None:
    """The WHERE as ``(position, op, constant)`` column tests, or None.

    The executor and EXPLAIN both plan through this one function. It
    applies when every conjunct is ``column op constant`` or ``constant
    op column`` (``=``, ``<>``, ``<``, ``<=``, ``>``, ``>=``), or a
    non-negated ``column BETWEEN c1 AND c2`` (two tests), where each
    constant is a literal or bound parameter of exact type int, float or
    str. ``constant op column`` is mirrored onto ``column op' constant``.
    """
    tests: list[tuple[int, str, int | float | str]] = []
    try:
        for conj in split_conjuncts(where):
            if isinstance(conj, ast.Between):
                if conj.negated or not isinstance(conj.operand, ast.ColumnRef):
                    return None
                low = _constant(conj.low, params)
                high = _constant(conj.high, params)
                if low is None or high is None:
                    return None
                pos = schema.resolve(conj.operand)
                tests += [(pos, ">=", low), (pos, "<=", high)]
                continue
            if not (isinstance(conj, ast.BinaryOp) and conj.op in _COMPARE):
                return None
            if isinstance(conj.left, ast.ColumnRef):
                const = _constant(conj.right, params)
                if const is None:
                    return None
                tests.append((schema.resolve(conj.left), conj.op, const))
            elif isinstance(conj.right, ast.ColumnRef):
                const = _constant(conj.left, params)
                if const is None:
                    return None
                tests.append((schema.resolve(conj.right), _MIRRORED[conj.op], const))
            else:
                return None
    except ColumnNotFoundError:
        return None
    return tests


def filter_rows(
    rows: list[tuple], tests: list[tuple[int, str, int | float | str]]
) -> list[tuple] | None:
    """The rows passing every column test, in order; None to fall back.

    Each tested column is pulled over *all* input rows before any mask
    runs. The kernel answers only when every value of a column compared
    with a number is exactly ``int``/``float``/``bool``, and every value
    of a column compared with a string is exactly ``str``: those are the
    comparisons the row predicate makes once it has excluded NULL and
    turned ``bool`` into ``int``, so no row could be NULL or raise
    ``SQLTypeError``. Anything else (a NULL, a type mix, a subclass)
    returns None and the caller runs the row predicate.
    """
    columns: dict[int, tuple[list, set]] = {}
    masks = []
    for pos, op, const in tests:
        if pos not in columns:
            values = list(map(itemgetter(pos), rows))
            columns[pos] = values, set(map(type, values))
        values, kinds = columns[pos]
        if not kinds <= (_STR_TYPE if type(const) is str else _NUMERIC_TYPES):
            return None
        masks.append(map(_COMPARE[op], values, repeat(const)))
    mask = masks[0] if len(masks) == 1 else map(all, zip(*masks))
    return list(compress(rows, mask))


def equi_positions(
    conj: ast.Expr, lschema: RowSchema, rschema: RowSchema
) -> tuple[int, int] | None:
    """``(left position, right position)`` when ``conj`` is ``a = b`` with
    one column resolving only on the left input and the other only on
    the right; None otherwise. The executor and EXPLAIN share it."""
    if not (isinstance(conj, ast.BinaryOp) and conj.op == "="):
        return None
    a, b = conj.left, conj.right
    if not (isinstance(a, ast.ColumnRef) and isinstance(b, ast.ColumnRef)):
        return None

    def side(ref: ast.ColumnRef) -> tuple[str, int] | None:
        found = []
        for label, schema in (("L", lschema), ("R", rschema)):
            try:
                found.append((label, schema.resolve(ref)))
            except ColumnNotFoundError:
                pass
        return found[0] if len(found) == 1 else None

    sa, sb = side(a), side(b)
    if sa is None or sb is None or sa[0] == sb[0]:
        return None
    return (sa[1], sb[1]) if sa[0] == "L" else (sb[1], sa[1])


def _buckets(keys, rows) -> dict:
    """Rows grouped by key, keys and rows in first-seen order."""
    out: dict = {}
    for key, row in zip(keys, rows):
        bucket = out.get(key)
        if bucket is None:
            out[key] = [row]
        else:
            bucket.append(row)
    return out


@functools.total_ordering
class _SortKey:
    """Total order over SQL values: NULL sorts last ascending-wise."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return self.value == other.value

    def __lt__(self, other):
        a, b = self.value, other.value
        if a is None:
            return False  # NULL is the greatest
        if b is None:
            return True
        if isinstance(a, bool):
            a = int(a)
        if isinstance(b, bool):
            b = int(b)
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            return a < b
        return str(a) < str(b)


def _column_positions(
    items: tuple[ast.SelectItem, ...], schema: RowSchema
) -> list[int] | None:
    """Row positions a select list of only column references and stars
    projects, in output order; None when any item is an expression."""
    positions: list[int] = []
    for item in items:
        if isinstance(item.expr, ast.Star):
            positions.extend(schema.indexes_for_star(item.expr.table))
        elif isinstance(item.expr, ast.ColumnRef):
            positions.append(schema.resolve(item.expr))
        else:
            return None
    return positions


def _project(
    items: tuple[ast.SelectItem, ...],
    schema: RowSchema,
    output: list[tuple[str, SQLType, Callable]],
    rows: list[tuple],
) -> list[tuple]:
    """``rows`` projected onto the select list: by position when it holds
    only columns and stars, else through the compiled ``output``."""
    positions = _column_positions(items, schema)
    if positions is None:
        return [tuple(fn(row) for _, _, fn in output) for row in rows]
    if len(positions) == 1:
        (pos,) = positions
        return [(row[pos],) for row in rows]
    return list(map(itemgetter(*positions), rows))


#: key types whose native order is the order :class:`_SortKey` gives
#: them (``bool`` compares as the int it is equal to)
_NUMERIC_TYPES = frozenset({int, float, bool})
_STR_TYPE = frozenset({str})
_NONE_TYPE = type(None)


def _sort_keys(values: list) -> list:
    """Per-row sort keys for one ORDER BY column.

    When the non-NULL values are all numeric or all strings, the key is
    the value itself, paired with a NULL flag when NULLs are present
    (``(v is None, v)`` puts NULL last): tuple comparison then makes the
    same ``<`` decisions as :class:`_SortKey`, at C speed. Any other mix
    (numbers with strings, bytes, ...) keeps the :class:`_SortKey`
    wrapper and its ``str`` fallback.
    """
    kinds = set(map(type, values))
    has_null = _NONE_TYPE in kinds
    kinds.discard(_NONE_TYPE)
    if kinds <= _NUMERIC_TYPES or kinds == {str}:
        if has_null:
            return [(v is None, v) for v in values]
        return values
    return list(map(_SortKey, values))


def sort_rows(rows: list, keys: list[tuple[Callable, bool]]) -> list:
    """Stable multi-key sort: ``keys`` are (row -> value, ascending) pairs.

    One stable pass per key, from the last key to the first, exactly as
    sorting with ``_SortKey(fn(row))`` would; each key function runs
    once per row.
    """
    out = list(rows)
    for fn, ascending in reversed(keys):
        sort_keys = _sort_keys(list(map(fn, out)))
        order = sorted(
            range(len(out)), key=sort_keys.__getitem__, reverse=not ascending
        )
        out = list(map(out.__getitem__, order))
    return out


class SelectExecutor:
    """Executes one SELECT statement against a resolver."""

    def __init__(self, resolver: TableResolver, params: tuple = ()):
        self.resolver = resolver
        self.params = params
        self.stats = ExecStats()
        self._subquery_depth = 0

    def _compile(self, expr: ast.Expr, schema: RowSchema):
        """Compile with this executor as the subquery runner."""
        return compile_expr(expr, schema, self.params, self._run_subquery)

    def _run_subquery(self, select: ast.Select):
        """Execute a non-correlated subquery against the same resolver."""
        if self._subquery_depth > 8:
            raise PlanningError("subquery nesting too deep")
        inner = SelectExecutor(self.resolver, self.params)
        inner._subquery_depth = self._subquery_depth + 1
        result = inner.execute(select)
        self.stats.rows_examined += result.stats.rows_examined
        return result.columns, result.rows

    # -- entry point -------------------------------------------------------------

    def execute(self, select: ast.Select) -> QueryResult:
        """Run the SELECT through scan/join/filter/aggregate/sort/limit."""
        if not select.from_:
            self._typecheck(select, RowSchema([]))
            return self._execute_scalar(select)
        schema, rows = self._execute_from(select)
        self._typecheck(select, schema)
        if select.where is not None:
            predicate = self._compile(select.where, schema)
            # charged as a full scan whatever the access path reads
            self.stats.rows_examined += len(rows)
            path = pk_range_path(select, self.resolver, schema, self.params)
            if path is not None:
                candidates = path[0].pk_range(path[1], path[2])
                if candidates is not None:
                    rows = candidates
            rows = self._filter(select.where, schema, rows, predicate)
        needs_agg = bool(select.group_by) or any(
            ast.contains_aggregate(i.expr) for i in select.items
        ) or (select.having is not None)
        if needs_agg:
            result = self._execute_aggregate(select, schema, rows)
        else:
            result = self._execute_plain(select, schema, rows)
        if select.distinct:
            result.rows = list(dict.fromkeys(result.rows))
        offset = select.offset or 0
        if offset:
            result.rows = result.rows[offset:]
        if select.limit is not None:
            result.rows = result.rows[: select.limit]
        result.stats = self.stats
        self.stats.rows_returned = len(result.rows)
        return result

    def _filter(self, expr: ast.Expr, schema: RowSchema, rows: list[tuple], predicate):
        """The rows ``expr`` holds for: column tests when they answer,
        else the compiled ``predicate`` row by row."""
        tests = column_tests(expr, schema, self.params)
        kept = None if tests is None else filter_rows(rows, tests)
        return kept if kept is not None else [r for r in rows if truthy(predicate(r))]

    def _typecheck(self, select: ast.Select, schema: RowSchema) -> None:
        """Static type check before any row is evaluated.

        Closes the lazy-evaluation hole where a type-mismatched
        expression (``SELECT a + 'x' FROM t``) silently returned an
        empty result on an empty table instead of an error.
        """
        from repro.lint.analyzer import typecheck_select

        for diag in typecheck_select(select, schema):
            raise SQLTypeError(diag.message)

    # -- FROM / joins ------------------------------------------------------------

    def _scan(self, ref: ast.TableRef) -> tuple[RowSchema, list[tuple]]:
        columns, rows = self.resolver.resolve_table(ref.name)
        qualifier = ref.binding
        schema = RowSchema(
            [SchemaColumn(qualifier, c.name, c.type) for c in columns]
        )
        self.stats.tables_accessed.append(ref.name)
        self.stats.rows_examined += len(rows)
        return schema, rows

    def _execute_from(self, select: ast.Select) -> tuple[RowSchema, list[tuple]]:
        schema, rows = self._scan(select.from_[0])
        for ref in select.from_[1:]:
            rschema, rrows = self._scan(ref)
            schema, rows = self._cross_join(schema, rows, rschema, rrows)
        for join in select.joins:
            rschema, rrows = self._scan(join.table)
            schema, rows = self._join(schema, rows, rschema, rrows, join)
        return schema, rows

    def _cross_join(self, lschema, lrows, rschema, rrows):
        combined = lschema.concat(rschema)
        rows = [lr + rr for lr in lrows for rr in rrows]
        self.stats.join_strategy.append("cross")
        return combined, rows

    def _join(self, lschema, lrows, rschema, rrows, join: ast.Join):
        combined = lschema.concat(rschema)
        if join.kind == "CROSS" or join.on is None:
            return self._cross_join(lschema, lrows, rschema, rrows)
        conjuncts = split_conjuncts(join.on)
        left_keys: list[int] = []
        right_keys: list[int] = []
        residual: list[ast.Expr] = []
        for conj in conjuncts:
            pair = equi_positions(conj, lschema, rschema)
            if pair is None:
                residual.append(conj)
            else:
                left_keys.append(pair[0])
                right_keys.append(pair[1])
        if left_keys:
            residual_fn = None
            if residual:
                pred_fns = [self._compile(c, combined) for c in residual]
                residual_fn = lambda row: all(truthy(p(row)) for p in pred_fns)  # noqa: E731
            rows = self._hash_join(
                lrows, rrows, left_keys, right_keys, join.kind, len(rschema), residual_fn
            )
            self.stats.join_strategy.append("hash")
        else:
            rows = self._nested_loop(
                lrows, rrows, combined, join.on, join.kind, len(rschema)
            )
            self.stats.join_strategy.append("nested-loop")
        return combined, rows

    def _hash_join(
        self, lrows, rrows, left_keys, right_keys, kind, right_width, residual_fn=None
    ):
        """Hash join on key positions; ``residual_fn`` is the non-equi
        remainder of the ON clause and participates in *match
        determination* (a LEFT row whose only hash matches fail the
        residual is padded, not dropped).

        One key position gives scalar keys, several give tuples; a scalar
        hashes and compares exactly as its 1-tuple would (NaN by
        identity). NULL never equi-joins: build keys holding a NULL are
        dropped, so a probe key holding one finds no bucket.
        """
        self.stats.rows_examined += len(lrows) + len(rrows)
        lkey, rkey = itemgetter(*left_keys), itemgetter(*right_keys)
        table = _buckets(map(rkey, rrows), rrows)
        if len(right_keys) == 1:
            table.pop(None, None)
        else:
            for key in [k for k in table if None in k]:
                del table[key]
        if kind != "LEFT" and residual_fn is None:
            get = table.get
            return [lr + rr for lr in lrows for rr in get(lkey(lr), ())]
        out: list[tuple] = []
        pad = (None,) * right_width
        for lr in lrows:
            matched = False
            for rr in table.get(lkey(lr), ()):
                row = lr + rr
                if residual_fn is None or residual_fn(row):
                    out.append(row)
                    matched = True
            if not matched and kind == "LEFT":
                out.append(lr + pad)
        return out

    def _nested_loop(self, lrows, rrows, combined, on, kind, right_width):
        self.stats.rows_examined += len(lrows) * max(1, len(rrows))
        predicate = self._compile(on, combined)
        out: list[tuple] = []
        pad = (None,) * right_width
        for lr in lrows:
            matched = False
            for rr in rrows:
                row = lr + rr
                if truthy(predicate(row)):
                    out.append(row)
                    matched = True
            if not matched and kind == "LEFT":
                out.append(lr + pad)
        return out

    # -- projection --------------------------------------------------------------

    def _expand_items(
        self, items: tuple[ast.SelectItem, ...], schema: RowSchema
    ) -> list[tuple[str, SQLType, Callable]]:
        """Expand stars and compile each output column."""
        out: list[tuple[str, SQLType, Callable]] = []
        for ordinal, item in enumerate(items, start=1):
            if isinstance(item.expr, ast.Star):
                for idx in schema.indexes_for_star(item.expr.table):
                    col = schema.columns[idx]
                    out.append(
                        (col.name, col.type, (lambda row, i=idx: row[i]))
                    )
                continue
            fn = self._compile(item.expr, schema)
            ctype = self._infer_type(item.expr, schema)
            out.append((item.output_name(ordinal), ctype, fn))
        return out

    def _infer_type(self, expr: ast.Expr, schema: RowSchema) -> SQLType:
        if isinstance(expr, ast.ColumnRef):
            try:
                return schema.columns[schema.resolve(expr)].type
            except ColumnNotFoundError:
                raise
        if isinstance(expr, ast.Literal):
            return infer_literal_type(expr.value)
        if isinstance(expr, ast.Cast):
            return expr.target
        if isinstance(expr, ast.FunctionCall):
            name = expr.name.upper()
            if name == "COUNT":
                return SQLType.bigint()
            if name in ("SUM", "AVG"):
                return SQLType.double()
            if name in ("MIN", "MAX") and expr.args:
                return self._infer_type(expr.args[0], schema)
        if isinstance(expr, ast.BinaryOp):
            if expr.op in ("AND", "OR", "=", "<>", "<", "<=", ">", ">="):
                return SQLType.boolean()
            if expr.op == "||":
                return SQLType.text()
            return SQLType.double()
        if isinstance(expr, (ast.IsNull, ast.InList, ast.Between, ast.Like)):
            return SQLType.boolean()
        if isinstance(expr, ast.UnaryOp):
            if expr.op == "NOT":
                return SQLType.boolean()
            return self._infer_type(expr.operand, schema)
        if isinstance(expr, ast.Case):
            for _, result in expr.whens:
                try:
                    return self._infer_type(result, schema)
                except (ColumnNotFoundError, SQLTypeError):
                    continue
        return SQLType.text()

    def _sort_rows(
        self,
        rows: list[tuple],
        order_by: tuple[ast.OrderItem, ...],
        schema: RowSchema,
        output: list[tuple[str, SQLType, Callable]] | None,
    ) -> list[tuple]:
        """Sort ``rows`` (pre-projection) honoring output aliases."""
        key_fns: list[tuple[Callable, bool]] = []
        alias_map = {}
        if output is not None:
            alias_map = {name.lower(): fn for name, _, fn in output}
        for item in order_by:
            fn = None
            if isinstance(item.expr, ast.ColumnRef) and item.expr.table is None:
                fn = alias_map.get(item.expr.column.lower())
            if fn is None:
                try:
                    fn = self._compile(item.expr, schema)
                except ColumnNotFoundError:
                    if fn is None:
                        raise
            key_fns.append((fn, item.ascending))
        return sort_rows(rows, key_fns)

    def _execute_plain(
        self, select: ast.Select, schema: RowSchema, rows: list[tuple]
    ) -> QueryResult:
        output = self._expand_items(select.items, schema)
        if select.order_by:
            rows = self._sort_rows(rows, select.order_by, schema, output)
        return QueryResult(
            columns=[name for name, _, _ in output],
            types=[ctype for _, ctype, _ in output],
            rows=_project(select.items, schema, output, rows),
        )

    # -- scalar select (no FROM) ----------------------------------------------------

    def _execute_scalar(self, select: ast.Select) -> QueryResult:
        schema = RowSchema([])
        output = self._expand_items(select.items, schema)
        row = tuple(fn(()) for _, _, fn in output)
        return QueryResult(
            columns=[name for name, _, _ in output],
            types=[ctype for _, ctype, _ in output],
            rows=[row],
        )

    # -- aggregation ------------------------------------------------------------------

    def _execute_aggregate(
        self, select: ast.Select, schema: RowSchema, rows: list[tuple]
    ) -> QueryResult:
        group_exprs = list(select.group_by)
        group_positions: list[int] | None = None
        if all(isinstance(g, ast.ColumnRef) for g in group_exprs):
            group_positions = [schema.resolve(g) for g in group_exprs]
        else:
            group_fns = [self._compile(g, schema) for g in group_exprs]

        # HAVING and ORDER BY may reference output names (MySQL-style,
        # e.g. HAVING n > 1 for COUNT(*) AS n, or ORDER BY detector for
        # an unaliased r.detector item): expand output names to the
        # underlying item expressions before anything else.
        alias_expr_map: dict[str, ast.Expr] = {}
        for ordinal, item in enumerate(select.items, start=1):
            if isinstance(item.expr, ast.Star):
                continue
            name = item.output_name(ordinal).lower()
            alias_expr_map.setdefault(name, item.expr)

        def expand_aliases(expr: ast.Expr) -> ast.Expr:
            if isinstance(expr, ast.ColumnRef) and expr.table is None:
                mapped = alias_expr_map.get(expr.column.lower())
                if mapped is not None:
                    return mapped
                return expr
            if isinstance(expr, ast.BinaryOp):
                return ast.BinaryOp(
                    expr.op, expand_aliases(expr.left), expand_aliases(expr.right)
                )
            if isinstance(expr, ast.UnaryOp):
                return ast.UnaryOp(expr.op, expand_aliases(expr.operand))
            if isinstance(expr, ast.IsNull):
                return ast.IsNull(expand_aliases(expr.operand), expr.negated)
            if isinstance(expr, ast.Between):
                return ast.Between(
                    expand_aliases(expr.operand),
                    expand_aliases(expr.low),
                    expand_aliases(expr.high),
                    expr.negated,
                )
            return expr

        having_expr = (
            expand_aliases(select.having) if select.having is not None else None
        )
        order_exprs = [expand_aliases(o.expr) for o in select.order_by]

        # Collect unique aggregate calls from items, HAVING and ORDER BY.
        agg_calls: list[ast.FunctionCall] = []
        agg_index: dict[str, int] = {}

        def collect(expr: ast.Expr) -> None:
            for node in ast.walk(expr):
                if (
                    isinstance(node, ast.FunctionCall)
                    and node.name.upper() in ast.AGGREGATE_FUNCTIONS
                ):
                    key = node.unparse()
                    if key not in agg_index:
                        agg_index[key] = len(agg_calls)
                        agg_calls.append(node)

        for item in select.items:
            collect(item.expr)
        if having_expr is not None:
            collect(having_expr)
        for order_expr in order_exprs:
            collect(order_expr)

        # Compile aggregate argument functions against the *input* schema;
        # a column argument is read by position.
        agg_arg_fns: list[Callable | None] = []
        for call in agg_calls:
            if not call.args or isinstance(call.args[0], ast.Star):
                agg_arg_fns.append(None)  # COUNT(*)
            elif isinstance(call.args[0], ast.ColumnRef):
                agg_arg_fns.append(itemgetter(schema.resolve(call.args[0])))
            else:
                agg_arg_fns.append(self._compile(call.args[0], schema))

        # Group rows.
        groups: dict[tuple, list[tuple]]
        if not group_exprs:
            groups = {(): list(rows)}
        elif group_positions is None:
            groups = _buckets((tuple(fn(row) for fn in group_fns) for row in rows), rows)
        else:
            groups = _buckets(map(itemgetter(*group_positions), rows), rows)
            if len(group_positions) == 1:
                # scalar keys group exactly as their 1-tuples would; re-wrap in order
                groups = {(key,): grouped for key, grouped in groups.items()}
        self.stats.rows_examined += len(rows)

        # Post-aggregation schema: group columns then aggregate results.
        post_columns = [
            SchemaColumn(None, f"__g{i}", SQLType.text()) for i in range(len(group_exprs))
        ] + [
            SchemaColumn(None, f"__a{j}", SQLType.double()) for j in range(len(agg_calls))
        ]
        post_schema = RowSchema(post_columns)

        post_rows: list[tuple] = []
        for key, grouped in groups.items():
            agg_values = [
                self._compute_aggregate(call, fn, grouped)
                for call, fn in zip(agg_calls, agg_arg_fns)
            ]
            post_rows.append(tuple(key) + tuple(agg_values))

        # Rewrite expressions onto the post-aggregation schema.
        group_keys = {g.unparse(): i for i, g in enumerate(group_exprs)}

        def rewrite(expr: ast.Expr) -> ast.Expr:
            key = expr.unparse()
            if key in agg_index and isinstance(expr, ast.FunctionCall):
                return ast.ColumnRef(column=f"__a{agg_index[key]}")
            if key in group_keys:
                return ast.ColumnRef(column=f"__g{group_keys[key]}")
            if isinstance(expr, ast.BinaryOp):
                return ast.BinaryOp(expr.op, rewrite(expr.left), rewrite(expr.right))
            if isinstance(expr, ast.UnaryOp):
                return ast.UnaryOp(expr.op, rewrite(expr.operand))
            if isinstance(expr, ast.FunctionCall):
                if expr.name.upper() in ast.AGGREGATE_FUNCTIONS:
                    return ast.ColumnRef(column=f"__a{agg_index[expr.unparse()]}")
                return ast.FunctionCall(
                    expr.name, tuple(rewrite(a) for a in expr.args), expr.distinct
                )
            if isinstance(expr, ast.IsNull):
                return ast.IsNull(rewrite(expr.operand), expr.negated)
            if isinstance(expr, ast.InList):
                return ast.InList(
                    rewrite(expr.operand),
                    tuple(rewrite(i) for i in expr.items),
                    expr.negated,
                )
            if isinstance(expr, ast.Between):
                return ast.Between(
                    rewrite(expr.operand), rewrite(expr.low), rewrite(expr.high), expr.negated
                )
            if isinstance(expr, ast.Like):
                return ast.Like(rewrite(expr.operand), rewrite(expr.pattern), expr.negated)
            if isinstance(expr, ast.Case):
                return ast.Case(
                    tuple((rewrite(c), rewrite(r)) for c, r in expr.whens),
                    rewrite(expr.else_) if expr.else_ else None,
                )
            if isinstance(expr, ast.Cast):
                return ast.Cast(rewrite(expr.operand), expr.target)
            if isinstance(expr, ast.ColumnRef):
                # A bare column in the select list must be a grouping column.
                raise PlanningError(
                    f"column {expr.unparse()!r} must appear in GROUP BY or an aggregate"
                )
            return expr

        if having_expr is not None:
            having = rewrite(having_expr)
            having_fn = self._compile(having, post_schema)
            post_rows = self._filter(having, post_schema, post_rows, having_fn)

        rewritten_items = tuple(
            ast.SelectItem(rewrite(item.expr), item.alias or item.output_name(i + 1))
            for i, item in enumerate(select.items)
        )
        output = self._expand_items(rewritten_items, post_schema)
        # Fix inferred output types (post-agg schema lost the real types).
        fixed_types = [
            self._infer_type(item.expr, schema) for item in select.items
        ]
        if select.order_by:
            rewritten_order = tuple(
                ast.OrderItem(rewrite(expr), order.ascending)
                for expr, order in zip(order_exprs, select.order_by)
            )
            post_rows = self._sort_rows(post_rows, rewritten_order, post_schema, output)
        return QueryResult(
            columns=[name for name, _, _ in output],
            types=fixed_types,
            rows=_project(rewritten_items, post_schema, output, post_rows),
        )

    @staticmethod
    def _compute_aggregate(call: ast.FunctionCall, arg_fn, rows: list[tuple]):
        name = call.name.upper()
        if name == "COUNT" and arg_fn is None:
            return len(rows)
        values = [v for v in map(arg_fn, rows) if v is not None]
        if name == "COUNT":
            return len(set(values)) if call.distinct else len(values)
        if call.distinct:
            values = list(set(values))
        if not values:
            return None
        if name == "SUM":
            return sum(values)
        if name == "AVG":
            return sum(values) / len(values)
        if name == "MIN":
            return min(values, key=_SortKey)
        if name == "MAX":
            return max(values, key=_SortKey)
        if name in ("STDDEV", "VARIANCE"):
            # population moments, HBOOK-style
            n = len(values)
            mean = sum(values) / n
            variance = sum((v - mean) ** 2 for v in values) / n
            return variance if name == "VARIANCE" else variance**0.5
        raise PlanningError(f"unknown aggregate {name}")
