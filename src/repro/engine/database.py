"""The per-server database facade: parse + dispatch + execute.

One :class:`Database` models one vendor database instance. It owns a
:class:`~repro.engine.catalog.Catalog`, accepts SQL text (optionally with
positional parameters), and returns :class:`ExecResult`. Views are
expanded recursively at resolve time, which is exactly how the paper's
warehouse exposes its read-only analysis views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from repro.common.errors import (
    IntegrityError,
    PlanningError,
    SQLSyntaxError,
    TableNotFoundError,
)
from repro.common.types import SQLType, coerce_value
from repro.engine.catalog import Catalog, ViewDef
from repro.engine.executor import ExecStats, QueryResult, SelectExecutor, sort_rows
from repro.engine.storage import Column, TableStorage
from repro.sql import ast
from repro.sql.eval import RowSchema, SchemaColumn, compile_expr, truthy
from repro.sql.parser import parse_statement


@dataclass
class ExecResult:
    """Outcome of one statement: a result set and/or an affected-row count."""

    columns: list[str] = field(default_factory=list)
    types: list[SQLType] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0
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
        raise TableNotFoundError(name)

    def to_dicts(self) -> list[dict]:
        """Rows as dicts keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    @staticmethod
    def from_query(result: QueryResult) -> "ExecResult":
        """Wrap an executor QueryResult as an ExecResult."""
        return ExecResult(
            columns=result.columns,
            types=result.types,
            rows=result.rows,
            rowcount=len(result.rows),
            stats=result.stats,
        )


class Database:
    """One simulated database server instance.

    ``vendor`` names the dialect personality (resolved lazily to avoid an
    import cycle with :mod:`repro.dialects`); the engine itself is
    vendor-neutral.
    """

    def __init__(self, name: str, vendor: str = "generic"):
        self.name = name
        self.vendor = vendor
        self.catalog = Catalog(name)
        self._view_depth = 0

    def __repr__(self) -> str:
        return f"Database(name={self.name!r}, vendor={self.vendor!r})"

    # -- TableResolver protocol ----------------------------------------------------

    def resolve_table(self, name: str) -> tuple[list[SchemaColumn], list[tuple]]:
        """(columns, rows) of a base table, or of a view expanded now."""
        if self.catalog.has_table(name):
            table = self.catalog.get_table(name)
            cols = [
                SchemaColumn(None, c.name, c.type) for c in table.columns
            ]
            return cols, table.rows
        view = self.catalog.get_view(name)
        if view is not None:
            if self._view_depth > 16:
                raise PlanningError(f"view expansion too deep at {name!r}")
            self._view_depth += 1
            try:
                result = SelectExecutor(self).execute(view.select)
            finally:
                self._view_depth -= 1
            cols = [
                SchemaColumn(None, cname, ctype)
                for cname, ctype in zip(result.columns, result.types)
            ]
            return cols, result.rows
        raise TableNotFoundError(name, self.name)

    def base_table(self, name: str) -> TableStorage | None:
        """The stored table behind ``name``; None for a view."""
        if self.catalog.has_table(name):
            return self.catalog.get_table(name)
        return None

    # -- statement execution ---------------------------------------------------------

    def execute(self, sql: str, params: tuple = ()) -> ExecResult:
        """Parse and execute one SQL statement.

        The entry point for callers holding text (DDL, the ETL, the POOL
        wrapper, tests). The federation's routers already hold each
        sub-query's AST and call :meth:`execute_statement` through the
        driver, so rendered sub-query text is never parsed again here.
        """
        stmt = parse_statement(sql)
        return self.execute_statement(stmt, params, sql_text=sql)

    def execute_statement(
        self, stmt: ast.Statement, params: tuple = (), sql_text: str | None = None
    ) -> ExecResult:
        """Execute an already-parsed statement."""
        if isinstance(stmt, ast.Select):
            result = SelectExecutor(self, params).execute(stmt)
            return ExecResult.from_query(result)
        if isinstance(stmt, ast.Union):
            return self._execute_union(stmt, params)
        if isinstance(stmt, ast.CreateTable):
            columns = [
                Column(
                    name=c.name,
                    type=c.type,
                    not_null=c.not_null,
                    primary_key=c.primary_key,
                    default=c.default,
                    has_default=c.has_default,
                )
                for c in stmt.columns
            ]
            self.catalog.create_table(stmt.name, columns, stmt.if_not_exists)
            return ExecResult()
        if isinstance(stmt, ast.CreateTableAs):
            if stmt.if_not_exists and self.catalog.has_table(stmt.name):
                return ExecResult()
            result = SelectExecutor(self, params).execute(stmt.select)
            columns = [
                Column(name=c, type=t) for c, t in zip(result.columns, result.types)
            ]
            self.catalog.create_table(stmt.name, columns)
            storage = self.catalog.get_table(stmt.name)
            for row in result.rows:
                storage.insert(list(row))
            return ExecResult(rowcount=len(result.rows))
        if isinstance(stmt, ast.DropTable):
            self.catalog.drop_table(stmt.name, stmt.if_exists)
            return ExecResult()
        if isinstance(stmt, ast.CreateView):
            text = sql_text or stmt.unparse()
            self.catalog.create_view(ViewDef(stmt.name, stmt.select, text))
            return ExecResult()
        if isinstance(stmt, ast.DropView):
            self.catalog.drop_view(stmt.name, stmt.if_exists)
            return ExecResult()
        if isinstance(stmt, ast.CreateIndex):
            self.catalog.create_index(stmt)
            return ExecResult()
        if isinstance(stmt, ast.Insert):
            return self._execute_insert(stmt, params)
        if isinstance(stmt, ast.Update):
            return self._execute_update(stmt, params)
        if isinstance(stmt, ast.Delete):
            return self._execute_delete(stmt, params)
        if isinstance(stmt, ast.AlterTable):
            return self._execute_alter(stmt)
        raise SQLSyntaxError(f"unsupported statement type {type(stmt).__name__}")

    def _execute_union(self, stmt: ast.Union, params: tuple) -> ExecResult:
        """UNION [ALL]: branch results combined by position.

        Column names come from the first branch; types are widened to a
        common supertype per position; trailing ORDER BY/LIMIT apply to
        the combined set and may reference the first branch's output
        names.
        """
        from repro.common.errors import SQLTypeError
        from repro.common.types import common_supertype

        branches = [
            SelectExecutor(self, params).execute(branch) for branch in stmt.selects
        ]
        width = len(branches[0].columns)
        for branch in branches[1:]:
            if len(branch.columns) != width:
                raise PlanningError(
                    f"UNION branches have {width} vs {len(branch.columns)} columns"
                )
        types = list(branches[0].types)
        for branch in branches[1:]:
            for i, t in enumerate(branch.types):
                try:
                    types[i] = common_supertype(types[i], t)
                except SQLTypeError:
                    from repro.common.types import SQLType

                    types[i] = SQLType.text()
        rows: list[tuple] = []
        for branch in branches:
            rows.extend(branch.rows)
        if not stmt.all:
            rows = list(dict.fromkeys(rows))
        columns = branches[0].columns
        if stmt.order_by:
            lowered = [c.lower() for c in columns]
            keys: list[tuple[Callable, bool]] = []
            for item in stmt.order_by:
                if not (
                    isinstance(item.expr, ast.ColumnRef) and item.expr.table is None
                ):
                    raise PlanningError(
                        "UNION ORDER BY must name an output column"
                    )
                name = item.expr.column.lower()
                if name not in lowered:
                    raise PlanningError(
                        f"UNION ORDER BY column {item.expr.column!r} is not an output"
                    )
                keys.append((itemgetter(lowered.index(name)), item.ascending))
            rows = sort_rows(rows, keys)
        offset = stmt.offset or 0
        if offset:
            rows = rows[offset:]
        if stmt.limit is not None:
            rows = rows[: stmt.limit]
        stats = ExecStats(
            rows_examined=sum(b.stats.rows_examined for b in branches),
            rows_returned=len(rows),
            tables_accessed=[
                t for b in branches for t in b.stats.tables_accessed
            ],
        )
        return ExecResult(
            columns=list(columns), types=types, rows=rows, rowcount=len(rows),
            stats=stats,
        )

    # -- DML --------------------------------------------------------------------------

    def _execute_insert(self, stmt: ast.Insert, params: tuple) -> ExecResult:
        table = self.catalog.get_table(stmt.table)
        columns = list(stmt.columns) or None
        count = 0
        if stmt.select is not None:
            result = SelectExecutor(self, params).execute(stmt.select)
            for row in result.rows:
                table.insert(list(row), columns)
                count += 1
            return ExecResult(rowcount=count)
        empty = RowSchema([])
        for row_exprs in stmt.rows:
            values = [compile_expr(e, empty, params)(()) for e in row_exprs]
            table.insert(values, columns)
            count += 1
        return ExecResult(rowcount=count)

    def _table_schema(self, table: TableStorage) -> RowSchema:
        return RowSchema(
            [SchemaColumn(table.name, c.name, c.type) for c in table.columns]
        )

    def _subquery_runner(self, params: tuple):
        """Non-correlated subquery evaluation for UPDATE/DELETE predicates."""

        def run(select: ast.Select):
            result = SelectExecutor(self, params).execute(select)
            return result.columns, result.rows

        return run

    def _execute_update(self, stmt: ast.Update, params: tuple) -> ExecResult:
        table = self.catalog.get_table(stmt.table)
        schema = self._table_schema(table)
        runner = self._subquery_runner(params)
        predicate = (
            compile_expr(stmt.where, schema, params, runner)
            if stmt.where is not None
            else None
        )
        assignment_fns = []
        for col_name, expr in stmt.assignments:
            pos = table.column_position(col_name)
            fn = compile_expr(expr, schema, params, runner)
            assignment_fns.append((pos, table.columns[pos], fn))
        new_rows: list[tuple] = []
        updated = 0
        for row in table.rows:
            if predicate is None or truthy(predicate(row)):
                mutable = list(row)
                for pos, col, fn in assignment_fns:
                    value = fn(row)
                    if value is not None:
                        value = coerce_value(value, col.type)
                    elif col.not_null:
                        raise IntegrityError(
                            f"NULL violates NOT NULL on {table.name}.{col.name}"
                        )
                    mutable[pos] = value
                new_rows.append(tuple(mutable))
                updated += 1
            else:
                new_rows.append(row)
        table.replace_rows(new_rows)
        return ExecResult(rowcount=updated)

    def _execute_delete(self, stmt: ast.Delete, params: tuple) -> ExecResult:
        table = self.catalog.get_table(stmt.table)
        if stmt.where is None:
            count = table.row_count
            table.replace_rows([])
            return ExecResult(rowcount=count)
        schema = self._table_schema(table)
        predicate = compile_expr(
            stmt.where, schema, params, self._subquery_runner(params)
        )
        deleted = table.delete_where(lambda row: not truthy(predicate(row)))
        return ExecResult(rowcount=deleted)

    def _execute_alter(self, stmt: ast.AlterTable) -> ExecResult:
        if stmt.action == "RENAME":
            self.catalog.rename_table(stmt.table, stmt.new_name)
            return ExecResult()
        table = self.catalog.get_table(stmt.table)
        if stmt.action == "ADD":
            assert stmt.column is not None
            table.add_column(
                Column(
                    name=stmt.column.name,
                    type=stmt.column.type,
                    not_null=stmt.column.not_null,
                    primary_key=False,
                    default=stmt.column.default,
                    has_default=stmt.column.has_default,
                )
            )
            return ExecResult()
        if stmt.action == "DROP":
            assert stmt.column_name is not None
            table.drop_column(stmt.column_name)
            return ExecResult()
        raise SQLSyntaxError(f"unsupported ALTER action {stmt.action!r}")

    # -- prepared statements -----------------------------------------------------------

    def prepare(self, sql: str) -> "PreparedStatement":
        """Parse once, execute many times with different parameters.

        The parse is the fixed per-statement cost a repeated workload
        pays on every call; a prepared statement amortizes it exactly
        like a real driver's ``PreparedStatement``.
        """
        return PreparedStatement(self, parse_statement(sql), sql)

    # -- introspection -------------------------------------------------------------------

    def explain(self, sql: str) -> list[str]:
        """Plan outline for ``sql`` without executing it, with any static
        lint findings appended as ``lint:`` lines."""
        from repro.engine.explain import explain_statement

        lines = explain_statement(self, sql)
        from repro.common.errors import ReproError
        from repro.lint import CatalogSchema, lint_sql

        try:
            report = lint_sql(sql, CatalogSchema(self))
        except ReproError:
            return lines
        lines.extend(f"lint: {d}" for d in report)
        return lines

    # -- bulk API used by ETL/materialization ------------------------------------------

    def bulk_insert(self, table_name: str, rows: list[list]) -> int:
        """Fast path for streaming loads: no SQL parse per row."""
        table = self.catalog.get_table(table_name)
        return table.insert_many(rows)


class PreparedStatement:
    """A parsed statement bound to one database."""

    def __init__(self, database: Database, statement: ast.Statement, sql: str):
        self.database = database
        self.statement = statement
        self.sql = sql
        self.executions = 0

    def execute(self, params: tuple = ()) -> ExecResult:
        """Run with ``params``; no re-parse."""
        self.executions += 1
        return self.database.execute_statement(
            self.statement, params, sql_text=self.sql
        )

    def __repr__(self) -> str:
        return f"PreparedStatement({self.sql!r}, executions={self.executions})"
